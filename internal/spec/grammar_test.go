package spec_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/filters"
	"repro/internal/spec"
)

// registry is one of the four parsers built on the spec grammar,
// reduced to "spec in, canonical name out".
type registry struct {
	name  string
	parse func(string) (string, error)
	// head(key=value) is a valid spec; other is a second valid value.
	head, key, value, other string
}

var registries = []registry{
	{"attacks.Parse", func(s string) (string, error) {
		a, err := attacks.Parse(s)
		if err != nil {
			return "", err
		}
		return a.Name(), nil
	}, "fgsm", "eps", "0.1", "0.2"},
	{"filters.Parse", func(s string) (string, error) {
		f, err := filters.Parse(s)
		if err != nil || f == nil {
			return "none", err
		}
		return f.Name(), nil
	}, "median", "r", "2", "3"},
	{"detect.Parse", func(s string) (string, error) {
		d, err := detect.Parse(s)
		if err != nil || d == nil {
			return "none", err
		}
		return d.Name(), nil
	}, "detect", "thr", "0.5", "0.25"},
	{"attacks.ParseAdaptive", func(s string) (string, error) {
		m, err := attacks.ParseAdaptive(s)
		if err != nil {
			return "", err
		}
		return m.Name(), nil
	}, "eot", "draws", "4", "16"},
}

// TestOneGrammar runs the same shape cases through all four parsers:
// where the hand-rolled copies used to disagree (case of names and keys,
// whitespace, empty items) there is now one rule, stated in
// ARCHITECTURE.md "Spec grammar".
func TestOneGrammar(t *testing.T) {
	for _, r := range registries {
		h, k, v := r.head, r.key, r.value
		want, err := r.parse(h + "(" + k + "=" + v + ")")
		if err != nil {
			t.Fatalf("%s: base spec: %v", r.name, err)
		}
		same := map[string]string{
			"upper-case name":     strings.ToUpper(h) + "(" + k + "=" + v + ")",
			"upper-case key":      h + "(" + strings.ToUpper(k) + "=" + v + ")",
			"space everywhere":    "  " + h + " ( " + k + " = " + v + " ) ",
			"tabs and newlines":   h + "(\n\t" + k + "=" + v + "\n)",
			"duplicate key, last": h + "(" + k + "=" + r.other + "," + k + "=" + v + ")",
		}
		for shape, s := range same {
			if got, err := r.parse(s); err != nil || got != want {
				t.Errorf("%s: %s: parse(%q) = %q, %v; want %q", r.name, shape, s, got, err, want)
			}
		}
		if def, err := r.parse(h + "()"); err != nil {
			t.Errorf("%s: empty parens: %v", r.name, err)
		} else if bare, err := r.parse(" " + strings.ToUpper(h) + " "); err != nil || bare != def {
			t.Errorf("%s: bare name = %q, %v; want the default %q", r.name, bare, err, def)
		}
		rejected := map[string]string{
			"leading empty item":  h + "(," + k + "=" + v + ")",
			"trailing empty item": h + "(" + k + "=" + v + ",)",
			"inner empty item":    h + "(" + k + "=" + v + ",," + k + "=" + v + ")",
			"only a comma":        h + "(,)",
			"missing value":       h + "(" + k + "=)",
			"missing key":         h + "(=" + v + ")",
			"no equals":           h + "(" + k + ")",
			"unknown key":         h + "(nosuchknob=" + v + ")",
			"unclosed":            h + "(" + k + "=" + v,
			"unopened":            h + ")",
			"text after":          h + "(" + k + "=" + v + ")x",
			"second group":        h + "(" + k + "=" + v + ")(" + k + "=" + v + ")",
			"no name":             "(" + k + "=" + v + ")",
			"unknown name":        "nosuchthing(" + k + "=" + v + ")",
			"two specs":           h + "," + h,
			"non-finite":          h + "(" + k + "=NaN)",
			"over the length":     h + "(" + k + "=" + v + strings.Repeat(" ", 4096) + ")",
			"over the depth":      h + "(" + k + "=" + strings.Repeat("(", 9) + strings.Repeat(")", 9) + ")",
		}
		for shape, s := range rejected {
			if got, err := r.parse(s); err == nil {
				t.Errorf("%s: %s: parse(%.60q) accepted as %q", r.name, shape, s, got)
			}
		}
	}
}

// TestFrozenDefaultNames pins every registry default's canonical name
// to the bytes the pre-internal/spec parsers rendered (captured from
// commit a3e6b2f): names are cache keys, response fields and the CI
// smoke steps' grep targets, so the refactor must not move one byte.
func TestFrozenDefaultNames(t *testing.T) {
	frozen := []string{
		"bim(eps=0.03137254901960784,alpha=0.00392156862745098,steps=16,early=true)",
		"cw(kappa=0,steps=120,lr=0.02,c=1,search=4)",
		"deepfool(iters=50,overshoot=0.02,candidates=10)",
		"fgsm(eps=0.03137254901960784)",
		"jsma(theta=0.2,frac=0.1)",
		"lbfgs(c=10,csteps=8,iters=60)",
		"mim(eps=0.03137254901960784,alpha=0.003137254901960784,steps=20,decay=1,early=true)",
		"onepixel(pixels=1,pop=40,gens=30,seed=7)",
		"pgd(eps=0.03137254901960784,alpha=0.00392156862745098,steps=20,restarts=2,seed=1)",
		"spsa(eps=0.03137254901960784,alpha=0.00392156862745098,steps=40,samples=16,delta=0.01,seed=3)",
		"bilateral(r=2,ss=2,sc=0.1)",
		"bitdepth(bits=5)",
		"box(r=2)",
		"gaussian(sigma=1)",
		"grayscale",
		"histeq(bins=256)",
		"jpeg(q=50)",
		"lap(np=32)",
		"lar(r=3)",
		"median(r=1)",
		"nlm(h=0.1,patch=1,window=3)",
		"normalize(mean=0.5,std=0.25)",
		"randflip(p=0.5,seed=1)",
		"randjpeg(qmin=20,qmax=80,seed=1)",
		"randnoise(sigma=0.05,seed=1)",
		"randresize(lo=0.8,hi=1,seed=1)",
		"tv(lambda=0.15,iters=15)",
		"detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=1)",
		"blind",
		"eot(draws=8)",
		"bpda",
	}
	var got []string
	for _, n := range attacks.Names() {
		a, err := attacks.New(n)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a.Name())
	}
	for _, n := range filters.Names() {
		f, err := filters.New(n)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Name())
	}
	got = append(got, detect.Default().Name())
	for _, kind := range attacks.AdaptiveModes() {
		m, err := attacks.ParseAdaptive(kind)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.Name())
	}
	if len(got) != len(frozen) {
		t.Fatalf("%d registry defaults, frozen list has %d — a new entry must be added here by hand", len(got), len(frozen))
	}
	for i := range frozen {
		if got[i] != frozen[i] {
			t.Errorf("default %d renders %q, frozen %q", i, got[i], frozen[i])
		}
	}
}

// TestDocsListRanges keeps the reference tables honest: every registry
// row of ATTACKS.md and FILTERS.md must show, for each knob, the range
// its Params() descriptor enforces.
func TestDocsListRanges(t *testing.T) {
	check := func(doc, name string, ps []spec.Param) {
		t.Helper()
		data, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "| `"+name+"` |") {
				row = line
			}
		}
		if row == "" {
			t.Errorf("%s has no registry row for %q", doc, name)
		}
		for _, p := range ps {
			_, after, found := strings.Cut(row, "`"+p.Name+"` (")
			entry, _, _ := strings.Cut(after, ")")
			if want := strings.ReplaceAll(p.Range(), "|", `\|`); !found || !strings.HasSuffix(entry, ", "+want) {
				t.Errorf("%s row %q: knob %s shows (%s), want its range %s", doc, name, p.Name, entry, want)
			}
		}
	}
	for _, n := range attacks.Names() {
		a, _ := attacks.New(n)
		check("ATTACKS.md", n, a.(attacks.Configurable).Params())
	}
	for _, n := range filters.Names() {
		f, _ := filters.New(n)
		var ps []spec.Param
		if cfg, ok := f.(filters.Configurable); ok {
			ps = cfg.Params()
		}
		check("FILTERS.md", n, ps)
	}
}
