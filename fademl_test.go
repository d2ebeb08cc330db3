package fademl

// Facade-level tests: the public API surface the examples and tools use.
// Heavy end-to-end paths are covered by the internal packages and the
// figure benchmarks; these tests pin the re-exported surface itself.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/nn"
)

func TestFacadeFilters(t *testing.T) {
	img := CanonicalSign(14, 32) // Stop
	for _, f := range []Filter{NewLAP(8), NewLAR(2), NewGaussian(1), NewMedian(1)} {
		out := f.Apply(img)
		if !out.SameShape(img) {
			t.Errorf("%s changed shape", f.Name())
		}
		if out.Min() < 0 || out.Max() > 1 {
			t.Errorf("%s escaped [0,1]", f.Name())
		}
	}
	chain := FilterChain(NewLAP(4), NewLAR(1))
	if !strings.Contains(chain.Name(), "lap(np=4)") || !strings.Contains(chain.Name(), "lar(r=1)") {
		t.Errorf("chain name = %q", chain.Name())
	}
}

func TestFacadeAttackRegistry(t *testing.T) {
	names := AttackNames()
	if len(names) < 8 {
		t.Fatalf("attack library too small: %v", names)
	}
	for _, name := range PaperAttacks {
		if _, err := NewAttack(name); err != nil {
			t.Errorf("paper attack %q: %v", name, err)
		}
	}
	if _, err := NewAttack("definitely-not-an-attack"); err == nil {
		t.Error("unknown attack accepted")
	}
}

func TestFacadeAttackConstructors(t *testing.T) {
	for _, spec := range []string{"fgsm(eps=0.05)", "bim(eps=0.1,alpha=0.01,steps=10)", "lbfgs(c=10,csteps=6,iters=20)", "cw(kappa=0)"} {
		a, err := ParseAttack(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		} else if a.Name() == "" {
			t.Errorf("%s: nameless attack", spec)
		}
	}
}

func TestFacadeScenarios(t *testing.T) {
	if len(PaperScenarios) != 5 {
		t.Fatalf("scenario count = %d", len(PaperScenarios))
	}
	sc := PaperScenarios[0]
	if ClassName(sc.Source) != "Stop" {
		t.Errorf("scenario 1 source = %q", ClassName(sc.Source))
	}
	img := sc.CleanImage(32)
	if img.Dim(0) != 3 || img.Dim(1) != 32 {
		t.Errorf("clean image shape = %v", img.Shape())
	}
}

func TestFacadeConstants(t *testing.T) {
	if NumClasses != 43 {
		t.Errorf("NumClasses = %d", NumClasses)
	}
	if TM1.String() != "TM-I" || TM2.String() != "TM-II" || TM3.String() != "TM-III" {
		t.Error("threat model labels wrong through facade")
	}
	if Untargeted != -1 {
		t.Errorf("Untargeted = %d", Untargeted)
	}
}

func TestFacadeProfiles(t *testing.T) {
	for _, p := range []Profile{ProfileTiny(), ProfileDefault(), ProfilePaper()} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s: %v", p.Name, err)
		}
	}
}

func TestFacadeAcquisition(t *testing.T) {
	acq := NewAcquisition(1, 0, true, 1)
	img := CanonicalSign(14, 32)
	out := acq.Apply(img)
	if !out.SameShape(img) {
		t.Error("acquisition changed shape")
	}
}

func TestFacadeParsers(t *testing.T) {
	if tm, err := ParseThreatModel("tm2"); err != nil || tm != TM2 {
		t.Errorf("ParseThreatModel(tm2) = %v, %v", tm, err)
	}
	if _, err := ParseThreatModel("tm9"); err == nil {
		t.Error("ParseThreatModel accepted tm9")
	}
	f, err := ParseFilter("LAP:32")
	if err != nil || f == nil {
		t.Fatalf("ParseFilter(LAP:32) = %v, %v", f, err)
	}
	if f.Name() != NewLAP(32).Name() {
		t.Errorf("parsed filter = %q", f.Name())
	}
	if f, err := ParseFilter("none"); err != nil || f != nil {
		t.Errorf("ParseFilter(none) = %v, %v", f, err)
	}
	if _, err := ParseFilter("LAP:zero"); err == nil {
		t.Error("ParseFilter accepted LAP:zero")
	}
}

func TestFacadeAttackSpecs(t *testing.T) {
	// ParseAttack round-trips canonical names for the whole registry.
	for _, name := range AttackNames() {
		atk, err := NewAttack(name)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := ParseAttack(atk.Name())
		if err != nil {
			t.Fatalf("ParseAttack(%q): %v", atk.Name(), err)
		}
		if rebuilt.Name() != atk.Name() {
			t.Errorf("round trip drifted: %q -> %q", atk.Name(), rebuilt.Name())
		}
	}
	if _, err := ParseAttack("pgd(eps=nope)"); err == nil {
		t.Error("malformed spec accepted")
	}
	got := SplitAttackSpecs("pgd(eps=0.03,steps=40), fgsm")
	if len(got) != 2 || got[0] != "pgd(eps=0.03,steps=40)" || got[1] != "fgsm" {
		t.Errorf("SplitAttackSpecs = %q", got)
	}
}

func TestFacadeBudgetedExecute(t *testing.T) {
	net, err := nn.TinyCNN(3, 16, 4, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(net, NewLAP(8), nil)
	atk, err := ParseAttack("bim(eps=0.1,alpha=0.01,steps=100,early=false)")
	if err != nil {
		t.Fatal(err)
	}
	var iterations int
	out, err := Execute(context.Background(), Run{
		Pipeline: pipe,
		Attack:   atk,
		TM:       TM3,
		Budget:   Budget{MaxIters: 3},
		Observer: func(p Progress) { iterations = p.Iterations },
	}, CanonicalSign(14, 16), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AttackerResult.Truncated {
		t.Fatal("3-iteration budget on a 100-step attack did not truncate")
	}
	if out.AttackerResult.Iterations != 3 || iterations != 3 {
		t.Fatalf("iterations = %d (observer saw %d), want 3",
			out.AttackerResult.Iterations, iterations)
	}
}

func TestFacadeServerAttack(t *testing.T) {
	net, err := nn.TinyCNN(3, 16, 4, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(net, NewLAP(8), nil)
	srv := NewServer(pipe, ServeOptions{
		Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond,
		AttackBudget: Budget{MaxQueries: 50},
		Render:       CanonicalSign,
	})
	defer srv.Close()
	out, err := srv.Attack(context.Background(), ServeAttackRequest{
		Spec: "fgsm(eps=0.05)", Source: 2, Target: 1, TM: TM3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.AttackerResult.Queries <= 0 {
		t.Fatalf("served attack reported %d queries", out.AttackerResult.Queries)
	}
	eval, err := srv.Evaluate(context.Background(), ServeEvaluateRequest{
		Specs: []string{"fgsm(eps=0.05)"},
		Cases: []EvalCase{{Source: 2, Target: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eval.Cells) != 1 || len(eval.Summaries) != 1 {
		t.Fatalf("evaluate = %+v", eval)
	}
}

func TestFacadeServer(t *testing.T) {
	net, err := nn.TinyCNN(3, 16, 4, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(net, NewLAP(8), NewAcquisition(1.0, 1.0/255, true, 7))
	srv := NewServer(pipe, ServeOptions{Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond})
	defer srv.Close()
	img := CanonicalSign(14, 16)
	pred, err := srv.Predict(context.Background(), img, TM2)
	if err != nil {
		t.Fatal(err)
	}
	want := pipe.Probs(img, TM2)
	if pred.Class != mathx.ArgMax(want) || pred.Prob != want[pred.Class] {
		t.Fatalf("served prediction %+v differs from direct pipeline call", pred)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
