package attacks

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/tensor"
)

// TestFilterNeutralizesClassicAttack reproduces the paper's Section III
// headline at unit-test scale: a filter-blind gradient attack that fools
// the bare network is neutralized once the input passes a smoothing filter
// (Threat Model II/III), reverting the prediction to the source class.
func TestFilterNeutralizesClassicAttack(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	requireCorrect(t, c, img, label)

	atk := &BIM{Epsilon: 0.06, Alpha: 0.008, Steps: 30, EarlyStop: true}
	res, err := atk.Generate(context.Background(), c, img, Goal{Source: label, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Skipf("base attack did not succeed at this budget; neutralization test not applicable")
	}
	for _, f := range []filters.Filter{filters.NewLAP(8), filters.NewLAR(2)} {
		filtered := FilteredClassifier{Inner: c, Pre: f}
		pred, conf := Predict(filtered, res.Adversarial)
		if pred != label {
			t.Errorf("%s did not neutralize BIM: predicts %d at %.2f", f.Name(), pred, conf)
		}
	}
}

// TestFAdeMLSurvivesFilter reproduces the paper's Section IV headline: the
// filter-aware attack keeps the targeted misclassification through the
// very filter that neutralizes the classical attack.
func TestFAdeMLSurvivesFilter(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	requireCorrect(t, c, img, label)

	filter := filters.NewLAP(8)
	base := &BIM{Epsilon: 0.12, Alpha: 0.012, Steps: 60, EarlyStop: true}
	fademl := NewFAdeML(base, filter)
	res, err := fademl.Generate(context.Background(), c, img, Goal{Source: label, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("FAdeML failed through %s: class %d at %.2f", filter.Name(), res.PredClass, res.Confidence)
	}
	// Verify against an independently constructed filtered pipeline.
	deployed := FilteredClassifier{Inner: c, Pre: filter}
	pred, conf := Predict(deployed, res.Adversarial)
	if pred != 1 {
		t.Fatalf("deployed pipeline predicts %d at %.2f, want target 1", pred, conf)
	}
}

func TestFAdeMLName(t *testing.T) {
	f := NewFAdeML(NewBIM(), filters.NewLAP(8))
	name := f.Name()
	if !strings.Contains(name, "FAdeML") || !strings.Contains(name, "lap(np=8)") {
		t.Fatalf("FAdeML name %q lacks components", name)
	}
}

func TestFAdeMLValidation(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	goal := Goal{Source: label, Target: 1}
	if _, err := (&FAdeML{Base: nil, Filter: filters.NewLAP(4), Eta: 1}).Generate(context.Background(), c, img, goal); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := (&FAdeML{Base: NewFGSM(), Filter: nil, Eta: 1}).Generate(context.Background(), c, img, goal); err == nil {
		t.Fatal("nil filter accepted")
	}
	if _, err := (&FAdeML{Base: NewFGSM(), Filter: filters.NewLAP(4), Eta: 2}).Generate(context.Background(), c, img, goal); err == nil {
		t.Fatal("eta > 1 accepted")
	}
}

func TestFAdeMLEtaScalesNoise(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	goal := Goal{Source: label, Target: 1}
	base := &FGSM{Epsilon: 0.08}
	full := &FAdeML{Base: base, Filter: filters.NewLAP(4), Eta: 1}
	half := &FAdeML{Base: base, Filter: filters.NewLAP(4), Eta: 0.5}
	resFull, err := full.Generate(context.Background(), c, img, goal)
	if err != nil {
		t.Fatal(err)
	}
	resHalf, err := half.Generate(context.Background(), c, img, goal)
	if err != nil {
		t.Fatal(err)
	}
	// Away from clamping, the halved noise is exactly half; globally its
	// norm must be at most slightly more than half.
	if resHalf.Noise.LInfNorm() > 0.5*resFull.Noise.LInfNorm()+1e-9 {
		t.Fatalf("eta=0.5 noise LInf %v vs full %v", resHalf.Noise.LInfNorm(), resFull.Noise.LInfNorm())
	}
}

func TestEq2CostProperties(t *testing.T) {
	// Equal distributions have zero cost.
	p := []float64{0.5, 0.2, 0.1, 0.1, 0.05, 0.05}
	if got := Eq2Cost(p, p, 5); math.Abs(got) > 1e-12 {
		t.Fatalf("Eq2Cost(p,p) = %v", got)
	}
	// A confident distribution vs a uniform one has positive cost.
	confident := []float64{0.9, 0.04, 0.03, 0.02, 0.01, 0}
	uniform := []float64{1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6}
	if got := Eq2Cost(confident, uniform, 5); got <= 0 {
		t.Fatalf("Eq2Cost(confident, uniform) = %v, want positive", got)
	}
	// Antisymmetry.
	if a, b := Eq2Cost(confident, uniform, 5), Eq2Cost(uniform, confident, 5); math.Abs(a+b) > 1e-12 {
		t.Fatalf("Eq2Cost not antisymmetric: %v vs %v", a, b)
	}
}

func TestGenerateWithTraceRecordsEq2(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	fademl := NewFAdeML(NewBIM(), filters.NewLAP(8))
	res, trace, err := fademl.GenerateWithTrace(context.Background(), c, img, Goal{Source: label, Target: 1}, 12, 0.01, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) != 12 {
		t.Fatalf("trace has %d steps, want 12", len(trace.Steps))
	}
	for i, v := range trace.Steps {
		if !mathx.IsFinite(v) {
			t.Fatalf("trace step %d not finite: %v", i, v)
		}
		if v < -5 || v > 5 {
			t.Fatalf("trace step %d implausible: %v", i, v)
		}
	}
	if res.Adversarial.Min() < 0 || res.Adversarial.Max() > 1 {
		t.Fatal("traced attack escaped [0,1]")
	}
	if res.Noise.LInfNorm() > 0.1+1e-9 {
		t.Fatal("traced attack exceeded epsilon")
	}
}

func TestGenerateWithTraceValidation(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	f := NewFAdeML(NewBIM(), filters.NewLAP(4))
	if _, _, err := f.GenerateWithTrace(context.Background(), c, img, Goal{Source: label, Target: Untargeted}, 5, 0.01, 0.1); err == nil {
		t.Fatal("untargeted trace accepted")
	}
	if _, _, err := f.GenerateWithTrace(context.Background(), c, img, Goal{Source: label, Target: 1}, 0, 0.01, 0.1); err == nil {
		t.Fatal("zero steps accepted")
	}
	// The trace shares Generate's checks rather than panicking on a nil
	// component or silently replacing an out-of-range eta.
	for name, bad := range map[string]*FAdeML{
		"nil base":   {Base: nil, Filter: filters.NewLAP(4), Eta: 1},
		"nil filter": {Base: NewBIM(), Filter: nil, Eta: 1},
		"eta > 1":    {Base: NewBIM(), Filter: filters.NewLAP(4), Eta: 2},
		"eta = 0":    {Base: NewBIM(), Filter: filters.NewLAP(4), Eta: 0},
	} {
		if _, _, err := bad.GenerateWithTrace(context.Background(), c, img, Goal{Source: label, Target: 1}, 5, 0.01, 0.1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestFilteredClassifierGradientChain verifies the composed VJP against
// finite differences through filter + network — the correctness core of
// the FAdeML mechanism.
func TestFilteredClassifierGradientChain(t *testing.T) {
	c := testClassifier(t)
	fc := FilteredClassifier{Inner: c, Pre: filters.NewLAP(8)}
	img, _ := canonical(t, gtsrb.ClassStop)
	loss, grad := CELossGrad(fc, img, 1)
	if !mathx.IsFinite(loss) {
		t.Fatal("filtered loss not finite")
	}
	const h = 1e-5
	for _, i := range []int{3, 99, 257, 511} {
		d := img.Data()
		orig := d[i]
		d[i] = orig + h
		lp, _ := CELossGrad(fc, img, 1)
		d[i] = orig - h
		lm, _ := CELossGrad(fc, img, 1)
		d[i] = orig
		numeric := (lp - lm) / (2 * h)
		a := grad.Data()[i]
		denom := math.Max(1e-6, math.Max(math.Abs(a), math.Abs(numeric)))
		if rel := math.Abs(a-numeric) / denom; rel > 1e-3 {
			t.Fatalf("filtered grad[%d]: analytic %v vs numeric %v (rel %v)", i, a, numeric, rel)
		}
	}
}

// TestFAdeMLNoiseIsLowerFrequency checks the mechanism behind survival:
// filter-aware noise must retain far more of its energy after smoothing
// than filter-blind noise does.
func TestFAdeMLNoiseIsLowerFrequency(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	goal := Goal{Source: label, Target: 1}
	filter := filters.NewLAP(8)

	blind, err := (&BIM{Epsilon: 0.08, Alpha: 0.01, Steps: 30}).Generate(context.Background(), c, img, goal)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := NewFAdeML(&BIM{Epsilon: 0.08, Alpha: 0.01, Steps: 30}, filter).Generate(context.Background(), c, img, goal)
	if err != nil {
		t.Fatal(err)
	}
	survived := func(noise *tensor.Tensor) float64 {
		if noise.L2Norm() == 0 {
			return 0
		}
		return filter.Apply(noise).L2Norm() / noise.L2Norm()
	}
	sBlind, sAware := survived(blind.Noise), survived(aware.Noise)
	if sAware <= sBlind {
		t.Fatalf("filter-aware noise survives %.3f of filtering vs blind %.3f — expected more", sAware, sBlind)
	}
}
