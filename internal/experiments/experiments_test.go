package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/mathx"
)

var (
	envOnce sync.Once
	envInst *Env
	envErr  error
)

// tinyEnv trains (once per test binary) the tiny-profile VGG used by every
// figure smoke test. No disk cache: tests must not depend on testdata
// state.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envInst, envErr = NewEnv(ProfileTiny(), "", nil)
	})
	if envErr != nil {
		t.Fatalf("tiny env: %v", envErr)
	}
	return envInst
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range []Profile{ProfileTiny(), ProfileDefault(), ProfilePaper()} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if p.CacheKey() == "" {
			t.Errorf("profile %s has empty cache key", p.Name)
		}
	}
	bad := ProfileTiny()
	bad.Size = 30
	if err := bad.Validate(); err == nil {
		t.Error("size 30 accepted")
	}
	bad = ProfileTiny()
	bad.TrainFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("TrainFrac 1.5 accepted")
	}
}

func TestCacheKeyDistinguishesProfiles(t *testing.T) {
	a, b := ProfileTiny(), ProfileTiny()
	b.Epochs++
	if a.CacheKey() == b.CacheKey() {
		t.Fatal("cache key ignores epochs")
	}
}

func TestScenarioTable(t *testing.T) {
	if len(PaperScenarios) != 5 {
		t.Fatalf("scenario count = %d", len(PaperScenarios))
	}
	// Paper scenario 1: stop to 60km/h.
	s1 := PaperScenarios[0]
	if s1.Source != gtsrb.ClassStop || s1.Target != gtsrb.ClassSpeed60 {
		t.Fatalf("scenario 1 = %+v", s1)
	}
	for _, sc := range PaperScenarios {
		if sc.Source == sc.Target {
			t.Fatalf("scenario %d has equal source and target", sc.ID)
		}
		if sc.CleanImage(32).Dim(1) != 32 {
			t.Fatalf("scenario %d clean image wrong size", sc.ID)
		}
		if sc.SourceName() == "" || sc.TargetName() == "" {
			t.Fatalf("scenario %d lacks names", sc.ID)
		}
		if !strings.Contains(sc.String(), sc.Name) {
			t.Fatalf("scenario String() = %q", sc.String())
		}
	}
}

func TestEnvTrainsToUsefulAccuracy(t *testing.T) {
	env := tinyEnv(t)
	if env.CleanTop5 < 0.70 {
		t.Fatalf("tiny profile clean top-5 = %.2f; too weak for figure smoke tests", env.CleanTop5)
	}
	if env.TestSet.Len() == 0 || env.TrainSet.Len() == 0 {
		t.Fatal("empty splits")
	}
}

func TestFig5Smoke(t *testing.T) {
	env := tinyEnv(t)
	res, err := RunFig5(context.Background(), env, []string{"fgsm", "bim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 { // 2 attacks × 5 scenarios
		t.Fatalf("fig5 rows = %d", len(res.Rows))
	}
	table := res.Table()
	for _, frag := range []string{"Fig. 5", "FGSM", "BIM", "Stop"} {
		if !strings.Contains(table, frag) {
			t.Errorf("fig5 table missing %q", frag)
		}
	}
	// BIM at experiment budget should achieve at least some payloads even
	// on the tiny model.
	if res.SuccessRate() == 0 {
		t.Error("fig5: no attack achieved any payload — budgets or model wrong")
	}
}

func TestFig6Smoke(t *testing.T) {
	env := tinyEnv(t)
	res, err := RunFig6(context.Background(), env, []string{"fgsm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5 {
		t.Fatalf("fig6 cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Top5 < 0 || c.Top5 > 1 {
			t.Fatalf("fig6 accuracy out of range: %+v", c)
		}
		// Attacks must not *improve* top-5 accuracy beyond noise.
		if c.Top5 > res.Baseline.Top5+0.10 {
			t.Errorf("fig6: attack increased accuracy: %+v vs baseline %.2f", c, res.Baseline.Top5)
		}
	}
	if !strings.Contains(res.Table(), "No Attack") {
		t.Error("fig6 table missing baseline row")
	}
	if res.MaxDrop() < 0 {
		t.Error("fig6 MaxDrop negative")
	}
}

func TestFig7Smoke(t *testing.T) {
	env := tinyEnv(t)
	opt := SweepOptions{
		Scenarios:      []Scenario{PaperScenarios[0]},
		AttackNames:    []string{"bim"},
		LAPSizes:       []int{8, 32},
		LARRadii:       []int{2},
		IncludeCurves:  true,
		CurveScenarios: []Scenario{PaperScenarios[0]},
	}
	res, err := RunFig7(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 { // 1 attack × 1 scenario × 3 filters
		t.Fatalf("fig7 panels = %d", len(res.Panels))
	}
	if len(res.Curves) != 2 { // none + bim
		t.Fatalf("fig7 curves = %d", len(res.Curves))
	}
	// Each curve covers identity + 3 filters.
	for _, c := range res.Curves {
		if len(c.Top5) != 4 || len(c.FilterNames) != 4 {
			t.Fatalf("fig7 curve lengths wrong: %+v", c)
		}
	}
	if res.FilterAware {
		t.Fatal("fig7 result mislabeled as filter-aware")
	}
	if !strings.Contains(res.Table(), "Fig. 7") {
		t.Error("fig7 table missing title")
	}
}

func TestFig9Smoke(t *testing.T) {
	env := tinyEnv(t)
	opt := SweepOptions{
		Scenarios:   []Scenario{PaperScenarios[0]},
		AttackNames: []string{"bim"},
		LAPSizes:    []int{8},
		LARRadii:    []int{2},
	}
	res, err := RunFig9(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FilterAware {
		t.Fatal("fig9 result not marked filter-aware")
	}
	if len(res.Panels) != 2 {
		t.Fatalf("fig9 panels = %d", len(res.Panels))
	}
	if !strings.Contains(res.Table(), "Fig. 9") {
		t.Error("fig9 table missing title")
	}
}

// TestFig7VsFig9Headline asserts the paper's central contrast on the tiny
// profile: filter-aware attacks survive filtering strictly more often than
// filter-blind ones on the same grid.
func TestFig7VsFig9Headline(t *testing.T) {
	env := tinyEnv(t)
	opt := SweepOptions{
		Scenarios:   []Scenario{PaperScenarios[0], PaperScenarios[2]},
		AttackNames: []string{"bim"},
		LAPSizes:    []int{8, 32},
		LARRadii:    []int{2},
	}
	blind, err := RunFig7(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := RunFig9(context.Background(), env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if aware.SurvivalRate() <= blind.SurvivalRate() {
		t.Fatalf("FAdeML survival %.2f not above filter-blind %.2f",
			aware.SurvivalRate(), blind.SurvivalRate())
	}
}

// TestPaperHeadline pins the two numbers the paper's argument rests on,
// on the full tiny-profile grid (5 scenarios × 3 attacks × 10 filters,
// panels only): LAP/LAR neutralize 67 of the 110 filter-blind attacks
// that worked under TM-I (60.91 %), and 108 of 150 FAdeML attacks survive
// the same filters (72.00 %). The f64 path is deterministic, so the
// counts are exact; a change that moves either is a change to the
// reproduction, not noise.
func TestPaperHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid sweep (~16 s) skipped in -short")
	}
	env := tinyEnv(t)
	blind, err := RunFig7(context.Background(), env, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	worked, neutralized := 0, 0
	for _, p := range blind.Panels {
		if p.TM1Pred == p.Scenario.Target {
			worked++
		}
		if p.Neutralized {
			neutralized++
		}
	}
	if neutralized != 67 || worked != 110 || blind.NeutralizationRate() != 67.0/110 {
		t.Errorf("Fig. 7 neutralized %d/%d (rate %v), want 67/110", neutralized, worked, blind.NeutralizationRate())
	}
	aware, err := RunFig9(context.Background(), env, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	survived := 0
	for _, p := range aware.Panels {
		if p.FilteredPred == p.Scenario.Target {
			survived++
		}
	}
	if survived != 108 || len(aware.Panels) != 150 || aware.SurvivalRate() != 108.0/150 {
		t.Errorf("Fig. 9 survived %d/%d (rate %v), want 108/150", survived, len(aware.Panels), aware.SurvivalRate())
	}
}

// TestPrecisionDriftTrainedNet is the float32 lane's acceptance bar on
// real weights: both lanes score every canonical sign on the trained
// tiny net and must agree on top-1 for at least 99 % of the 43 classes
// (nn's TestNet32AgreesWithFloat64 covers only a random net, where no
// class is confidently predicted).
func TestPrecisionDriftTrainedNet(t *testing.T) {
	env := tinyEnv(t)
	n32, err := env.Net.ToFloat32()
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for class := 0; class < gtsrb.NumClasses; class++ {
		img := gtsrb.Canonical(class, env.Profile.Size)
		if mathx.ArgMax(env.Net.Probs(img)) == mathx.ArgMax(n32.Probs(img)) {
			agree++
		}
	}
	if 100*agree < 99*gtsrb.NumClasses {
		t.Fatalf("float32 lane agrees with float64 on %d/%d canonical signs, want >= 99%%", agree, gtsrb.NumClasses)
	}
}

func TestTableFormatter(t *testing.T) {
	tab := NewTable("Title", "A", "LongHeader")
	tab.AddRow("x", 1.23456)
	tab.AddRow("yyyy", "z")
	s := tab.String()
	if !strings.Contains(s, "Title") || !strings.Contains(s, "LongHeader") {
		t.Fatalf("table missing pieces:\n%s", s)
	}
	if !strings.Contains(s, "1.23") {
		t.Fatalf("float not formatted:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestBuildAttackBudgets(t *testing.T) {
	for _, name := range []string{"fgsm", "bim", "lbfgs", "pgd", "cw", "deepfool", "jsma", "onepixel"} {
		atk, err := buildAttack(name)
		if err != nil {
			t.Fatalf("buildAttack(%q): %v", name, err)
		}
		if atk.Name() == "" {
			t.Fatalf("attack %q nameless", name)
		}
	}
	if _, err := buildAttack("bogus"); err == nil {
		t.Fatal("bogus attack accepted")
	}
	if attackLabel("lbfgs") != "L-BFGS" || attackLabel("custom") != "custom" {
		t.Fatal("attack labels wrong")
	}
}
