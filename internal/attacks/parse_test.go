package attacks

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// TestParseNameRoundTrip is the registry contract of the v2 API: every
// registered attack's canonical Name() is a spec that Parse rebuilds into
// an identically configured instance.
func TestParseNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		orig, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := orig.Name()
		rebuilt, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if rebuilt.Name() != spec {
			t.Errorf("round trip drifted: %q -> %q", spec, rebuilt.Name())
		}
		// The canonical spec must reconstruct the exact configuration, not
		// just an equal-looking name.
		if !reflect.DeepEqual(orig, rebuilt) {
			t.Errorf("%s: Parse(Name()) config %+v != original %+v", name, rebuilt, orig)
		}
	}
}

// TestParseBareNamesMatchNew checks that a bare registry name (and its
// case variants) parses to the default-configured instance.
func TestParseBareNamesMatchNew(t *testing.T) {
	for _, name := range Names() {
		def, _ := New(name)
		for _, spec := range []string{name, strings.ToUpper(name), " " + name + " "} {
			got, err := Parse(spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			if got.Name() != def.Name() {
				t.Errorf("Parse(%q) = %q, want default %q", spec, got.Name(), def.Name())
			}
		}
	}
}

// TestParseAppliesParameters checks typed knob assignment through specs.
func TestParseAppliesParameters(t *testing.T) {
	atk, err := Parse("pgd(eps=0.5, steps=3, restarts=1, seed=9)")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := atk.(*PGD)
	if !ok {
		t.Fatalf("Parse returned %T, want *PGD", atk)
	}
	if p.Epsilon != 0.5 || p.Steps != 3 || p.Restarts != 1 || p.Seed != 9 {
		t.Fatalf("parsed PGD = %+v", p)
	}
	// Untouched knobs keep their defaults.
	if p.Alpha != NewPGD().Alpha {
		t.Fatalf("alpha default lost: %v", p.Alpha)
	}

	b, err := Parse("bim(early=false,steps=2)")
	if err != nil {
		t.Fatal(err)
	}
	if bim := b.(*BIM); bim.EarlyStop || bim.Steps != 2 {
		t.Fatalf("parsed BIM = %+v", bim)
	}
}

// TestParseMalformedSpecs enumerates the error cases a CLI or HTTP caller
// can feed in: every one must be a descriptive error, never a panic or a
// silently default-configured attack.
func TestParseMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"nope",
		"nope(eps=1)",
		"pgd(",
		"pgd)",
		"pgd(eps=0.1",
		"(eps=0.1)",
		"pgd(eps)",
		"pgd(eps=)",
		"pgd(=0.1)",
		"pgd(bogus=1)",
		"pgd(eps=abc)",
		"pgd(steps=1.5)",
		"pgd(seed=-1)",
		"bim(early=maybe)",
		"pgd,fgsm",
	} {
		if atk, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted: %v", spec, atk.Name())
		}
	}
}

// TestParsedAttackGenerates is the end-to-end spec path: a parameterized
// spec string produces a working attack whose output matches the same
// configuration built in Go.
func TestParsedAttackGenerates(t *testing.T) {
	c := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]
	goal := Goal{Source: label, Target: 1}

	parsed, err := Parse("bim(eps=0.1,alpha=0.01,steps=12,early=false)")
	if err != nil {
		t.Fatal(err)
	}
	manual := &BIM{Epsilon: 0.1, Alpha: 0.01, Steps: 12, EarlyStop: false}
	rp, err := parsed.Generate(context.Background(), c, clean, goal)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := manual.Generate(context.Background(), c, clean, goal)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualWithin(rp.Adversarial, rm.Adversarial, 0) || rp.Queries != rm.Queries {
		t.Fatal("spec-built attack diverged from the equivalent Go-built attack")
	}
}

// TestSetUnknownParam pins the Configurable error surface.
func TestSetUnknownParam(t *testing.T) {
	atk := NewPGD()
	if err := spec.Assign(atk.Params(), "bogus=1"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Assign(bogus=1) = %v", err)
	}
	if err := spec.Assign(atk.Params(), "eps=0.25"); err != nil || atk.Epsilon != 0.25 {
		t.Fatalf("Assign(eps=0.25) = %v, eps = %v", err, atk.Epsilon)
	}
}

// TestParamsHaveDocs keeps the self-describing registry honest: every
// knob of every attack carries documentation and a distinct name.
func TestParamsHaveDocs(t *testing.T) {
	for _, name := range Names() {
		atk, _ := New(name)
		cfg, ok := atk.(Configurable)
		if !ok {
			t.Fatalf("registry attack %q is not Configurable", name)
		}
		seen := map[string]bool{}
		for _, p := range cfg.Params() {
			if p.Name == "" || p.Doc == "" || p.Get == nil || p.Set == nil {
				t.Errorf("%s: incomplete param descriptor %+v", name, p.Name)
			}
			if seen[p.Name] {
				t.Errorf("%s: duplicate param %q", name, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

// TestSplitSpecs covers the paren-aware comma splitting the -attacks
// flags and HTTP payloads rely on.
func TestSplitSpecs(t *testing.T) {
	got := SplitSpecs("pgd(eps=0.03,steps=40), fgsm ,bim(early=false)")
	want := []string{"pgd(eps=0.03,steps=40)", "fgsm", "bim(early=false)"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitSpecs = %q, want %q", got, want)
	}
	if got := SplitSpecs("  "); got != nil {
		t.Fatalf("SplitSpecs(blank) = %q", got)
	}
}
