package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/attacks"
)

// TestFigureBudgetsMatchDocs: every spec in ATTACKS.md's "Figure
// budgets" table is the one its figure's map resolves the attack to (a
// name absent from a map resolves as itself), every map entry is
// tabled, and every spec parses.
func TestFigureBudgetsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../ATTACKS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "## Figure budgets")
	if !ok {
		t.Fatal(`ATTACKS.md has no "Figure budgets" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	tick := regexp.MustCompile("`([^`]+)`")
	maps := []map[string]string{blindBudgets, awareBudgets, fig6Budgets}
	tabled := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cols := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cols) != 4 || !tick.MatchString(cols[1]) {
			continue // prose or rule
		}
		blind := tick.FindStringSubmatch(cols[1])[1]
		name, _, isSpec := strings.Cut(blind, "(")
		if !isSpec {
			continue // header
		}
		tabled[name] = true
		for i, m := range maps {
			want := tick.FindStringSubmatch(cols[i+1])[1]
			if want == "buildAttack" { // "as `buildAttack`"
				want = blind
			}
			got, ok := m[name]
			if !ok {
				got = name
			}
			if got != want {
				t.Errorf("%s, column %d: map resolves %q, ATTACKS.md tables %q", name, i+1, got, want)
			}
			if _, err := attacks.Parse(got); err != nil {
				t.Errorf("%s, column %d: %v", name, i+1, err)
			}
		}
	}
	for i, m := range maps {
		for name := range m {
			if !tabled[name] {
				t.Errorf("column %d: %q has a budget but no ATTACKS.md row", i+1, name)
			}
		}
	}
}
