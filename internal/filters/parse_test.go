package filters

import (
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

func TestParseValidSpecs(t *testing.T) {
	cases := map[string]string{
		// Canonical v2 syntax.
		"lap(np=32)":          "lap(np=32)",
		"lap":                 "lap(np=32)", // registry default
		"LAP(np=8)":           "lap(np=8)",  // names are case-insensitive
		"lar(r=3)":            "lar(r=3)",
		"median(r=2)":         "median(r=2)",
		"gaussian(sigma=1.5)": "gaussian(sigma=1.5)",
		"box(r=2)":            "box(r=2)",
		"bilateral(sc=0.2)":   "bilateral(r=2,ss=2,sc=0.2)", // partial override keeps defaults
		"grayscale":           "grayscale",
		"normalize(mean=0)":   "normalize(mean=0,std=0.25)",
		"histeq(bins=64)":     "histeq(bins=64)",
		"jpeg(q=20)":          "jpeg(q=20)",
		"bitdepth(bits=3)":    "bitdepth(bits=3)",
		"tv(lambda=0.2)":      "tv(lambda=0.2,iters=15)",
		"nlm(h=0.2,window=2)": "nlm(h=0.2,patch=1,window=2)",
		" median ( r = 2 ) ":  "median(r=2)", // whitespace-tolerant
		// Chains, including nesting.
		"chain(median(r=1),histeq(bins=64))":    "chain(median(r=1),histeq(bins=64))",
		"chain(lap(np=4),chain(lar(r=1),jpeg))": "chain(lap(np=4),chain(lar(r=1),jpeg(q=50)))",
		// Legacy KIND:PARAM compatibility.
		"LAP:32":    "lap(np=32)",
		"lap:4":     "lap(np=4)",
		"LAR:3":     "lar(r=3)",
		"MEDIAN:1":  "median(r=1)",
		"gauss:2":   "gaussian(sigma=2)",
		"BOX:2":     "box(r=2)",
		" LAP : 8 ": "lap(np=8)",
	}
	for spec, want := range cases {
		f, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if f == nil {
			t.Errorf("Parse(%q) returned nil filter", spec)
			continue
		}
		if got := f.Name(); got != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, got, want)
		}
	}
}

func TestParseNone(t *testing.T) {
	for _, spec := range []string{"", "none", "NONE", "  none  "} {
		f, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
		if f != nil {
			t.Errorf("Parse(%q) = %v, want nil", spec, f)
		}
	}
}

// TestParseMalformedSpecs is the table of specs that must fail with a
// usage-style error — never a panic and never a silent clamp.
func TestParseMalformedSpecs(t *testing.T) {
	cases := map[string]string{
		// Unknown names.
		"wavelet":            "unknown filter",
		"wavelet(r=2)":       "unknown filter",
		"WAVELET:2":          "unknown kind",
		"chain(wavelet)":     "unknown filter",
		"chain(lap,wavelet)": "unknown filter",
		// Unknown params.
		"median(radius=2)":       "unknown param",
		"lap(r=3)":               "unknown param",
		"gaussian(s=1)":          "unknown param",
		"chain(median(sigma=1))": "unknown param",
		// Out-of-range values: rejected, not clamped. Every numeric knob
		// has a finite ceiling (median(r=40000) used to parse and then
		// ask Apply for a 51 GB window) and no knob takes NaN or ±Inf.
		"median(r=40000)":     "in [1, 16]",
		"lap(np=1000000)":     "in [1, 1024]",
		"gaussian(sigma=Inf)": "in [1e-06, 10]",
		"gaussian(sigma=NaN)": "in [1e-06, 10]",
		"normalize(mean=NaN)": "in [-10, 10]",
		"median(r=0)":         "in [1, 16]",
		"median(r=-2)":        "in [1, 16]",
		"lap(np=0)":           "in [1, 1024]",
		"lar(r=-1)":           "in [1, 16]",
		"gaussian(sigma=-2)":  "in [1e-06, 10]",
		"gaussian(sigma=0)":   "in [1e-06, 10]",
		"bilateral(ss=-1)":    "in [1e-06, 100]",
		"histeq(bins=1)":      "in [2, 65536]",
		"jpeg(q=0)":           "in [1, 100]",
		"jpeg(q=101)":         "in [1, 100]",
		"bitdepth(bits=0)":    "in [1, 16]",
		"tv(lambda=-0.1)":     "in [1e-06, 100]",
		"tv(iters=0)":         "in [1, 1000]",
		"nlm(h=0)":            "in [1e-06, 100]",
		"nlm(window=0)":       "in [1, 7]",
		// Type errors.
		"median(r=two)":      "want an integer",
		"gaussian(sigma=xx)": "want a number",
		"LAP:x":              "not an integer",
		"LAP:":               "not an integer",
		"LAP:3:4:":           "not an integer",
		// Shape errors.
		"median(r=2":     "missing closing parenthesis",
		"median(r)":      "want key=value",
		"median(=2)":     "want key=value",
		"median(r=)":     "want key=value",
		"(r=2)":          "has no name",
		":3":             "unknown kind",
		"grayscale(x=1)": "accepts no parameters",
		"chain()":        "at least one stage",
		"chain(none)":    "stage 1 is empty",
		"chain(lap,)":    "stage 2",
	}
	for spec, wantSub := range cases {
		f, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted (got %v)", spec, f)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", spec, err, wantSub)
		}
	}
}

// TestParseNameRoundTrip pins the canonical-spec contract: for every
// registered filter (and a chain of them), Parse(f.Name()) rebuilds an
// identically configured instance — same Name, bit-identical Apply.
func TestParseNameRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(77)
	img := tensor.RandU(rng, 0, 1, 3, 9, 9)
	check := func(f Filter) {
		t.Helper()
		rebuilt, err := Parse(f.Name())
		if err != nil {
			t.Errorf("Parse(%q): %v", f.Name(), err)
			return
		}
		if rebuilt.Name() != f.Name() {
			t.Errorf("round trip changed the spec: %q -> %q", f.Name(), rebuilt.Name())
		}
		if !tensor.EqualWithin(rebuilt.Apply(img), f.Apply(img), 0) {
			t.Errorf("round trip of %q changed the configuration", f.Name())
		}
	}
	var chain Chain
	for _, name := range Names() {
		f, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		check(f)
		chain = append(chain, f)
	}
	check(chain)
}

// TestParseDoesNotShareState pins that Parse returns fresh instances:
// configuring one parse result must not affect another.
func TestParseDoesNotShareState(t *testing.T) {
	a, err := Parse("median(r=1)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("median(r=3)")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "median(r=1)" || b.Name() != "median(r=3)" {
		t.Fatalf("parse results share state: %q, %q", a.Name(), b.Name())
	}
}

func TestSetRejectsWithoutMutating(t *testing.T) {
	f, err := Parse("lap(np=8)")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Assign(f.(Configurable).Params(), "np=0"); err == nil {
		t.Fatal("Assign(np=0) accepted")
	}
	if f.Name() != "lap(np=8)" {
		t.Fatalf("rejected Set still mutated the filter: %q", f.Name())
	}
	rng := mathx.NewRNG(5)
	img := tensor.RandU(rng, 0, 1, 1, 6, 6)
	if !tensor.EqualWithin(f.Apply(img), NewLAP(8).Apply(img), 0) {
		t.Fatal("rejected Set corrupted the stencil")
	}
}

func TestSplitSpecs(t *testing.T) {
	got := SplitSpecs(" chain(median(r=1),histeq(bins=64)) , lap(np=8), ,none ")
	want := []string{"chain(median(r=1),histeq(bins=64))", "lap(np=8)", "none"}
	if len(got) != len(want) {
		t.Fatalf("SplitSpecs = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitSpecs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLargestChainRoundTrips pins the arithmetic behind the grammar's
// limits: one spec string names at most 32 filters, and 32 of the
// longest canonical filter spec still fit the length limit — so a chain
// that parses, however tersely it was written, has a name that parses.
func TestLargestChainRoundTrips(t *testing.T) {
	longest := "randresize(lo=0.0012345678901234567,hi=0.98765432109876543,seed=18446744073709551615)"
	for _, stage := range []string{"randresize", longest} {
		s := "chain(" + strings.Repeat(stage+",", 30) + stage + ")"
		f, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(31 × %s): %v", stage, err)
		}
		again, err := Parse(f.Name())
		if err != nil || again.Name() != f.Name() {
			t.Fatalf("canonical name of 31 × %s (%d bytes) does not round-trip: %v", stage, len(f.Name()), err)
		}
	}
	if _, err := Parse("chain(" + strings.Repeat("tv,", 32) + "tv)"); err == nil || !strings.Contains(err.Error(), "limit 32") {
		t.Fatalf("a 33-stage chain = %v, want the spec-count limit", err)
	}
}
