package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		logits := make([]float64, 10)
		for i := range logits {
			logits[i] = r.Range(-20, 20)
		}
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return mathx.EqualWithin(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	logits := []float64{1, 2, 3}
	shifted := []float64{101, 102, 103}
	a, b := Softmax(logits), Softmax(shifted)
	for i := range a {
		if !mathx.EqualWithin(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestSoftmaxExtremeLogitsStable(t *testing.T) {
	p := Softmax([]float64{1000, 0, -1000})
	if math.IsNaN(p[0]) || p[0] < 0.999 {
		t.Fatalf("softmax unstable on extreme logits: %v", p)
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	logits := []float64{0.5, -1.2, 3.3, 0}
	ls := LogSoftmax(logits)
	p := Softmax(logits)
	for i := range ls {
		if !mathx.EqualWithin(ls[i], math.Log(p[i]), 1e-9) {
			t.Fatalf("LogSoftmax[%d]=%v, log(softmax)=%v", i, ls[i], math.Log(p[i]))
		}
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(1, 4)
	loss, grad := CrossEntropy{}.Eval(logits, []int{1})
	if !mathx.EqualWithin(loss, math.Log(4), 1e-12) {
		t.Fatalf("uniform CE loss = %v, want ln4=%v", loss, math.Log(4))
	}
	// Gradient: p - onehot = 0.25 everywhere except 0.25-1 at the label.
	if !mathx.EqualWithin(grad.At(0, 1), -0.75, 1e-12) || !mathx.EqualWithin(grad.At(0, 0), 0.25, 1e-12) {
		t.Fatalf("uniform CE grad = %v", grad.Data())
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		logits := tensor.RandN(r, 3, 7)
		_, grad := CrossEntropy{}.Eval(logits, []int{0, 3, 6})
		// Each row of the CE gradient sums to zero (softmax sums to one).
		for row := 0; row < 3; row++ {
			if !mathx.EqualWithin(grad.Row(row).Sum(), 0, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrossEntropyGradMatchesFiniteDifference(t *testing.T) {
	r := mathx.NewRNG(31)
	logits := tensor.RandN(r, 2, 5)
	labels := []int{4, 0}
	_, grad := CrossEntropy{}.Eval(logits, labels)
	const h = 1e-6
	for i := 0; i < logits.Len(); i++ {
		d := logits.Data()
		orig := d[i]
		d[i] = orig + h
		lp, _ := CrossEntropy{}.Eval(logits, labels)
		d[i] = orig - h
		lm, _ := CrossEntropy{}.Eval(logits, labels)
		d[i] = orig
		numeric := (lp - lm) / (2 * h)
		if !mathx.EqualWithin(grad.Data()[i], numeric, 1e-5) {
			t.Fatalf("CE grad[%d] analytic=%v numeric=%v", i, grad.Data()[i], numeric)
		}
	}
}

func TestCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CE with out-of-range label did not panic")
		}
	}()
	CrossEntropy{}.Eval(tensor.New(1, 3), []int{3})
}

func TestNetworkValidation(t *testing.T) {
	rng := mathx.NewRNG(40)
	// Duplicate layer names are rejected.
	_, err := NewNetwork("dup", []int{4},
		NewDense("fc", 4, 4, rng), NewDense("fc", 4, 2, rng))
	if err == nil {
		t.Fatal("duplicate layer names accepted")
	}
	// Shape mismatches are rejected at construction.
	_, err = NewNetwork("bad", []int{4},
		NewDense("fc1", 5, 4, rng))
	if err == nil {
		t.Fatal("shape-mismatched stack accepted")
	}
	// Empty stack rejected.
	if _, err = NewNetwork("empty", []int{4}); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	rng := mathx.NewRNG(41)
	net, err := TinyCNN(3, 16, 43, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.OutputClasses(); got != 43 {
		t.Fatalf("OutputClasses = %d", got)
	}
	x := tensor.RandU(rng, 0, 1, 2, 3, 16, 16)
	out := net.Forward(x, false)
	if out.Dim(0) != 2 || out.Dim(1) != 43 {
		t.Fatalf("Forward output shape = %v", out.Shape())
	}
	if !out.AllFinite() {
		t.Fatal("Forward produced non-finite logits")
	}
}

func TestNetworkPredictConsistent(t *testing.T) {
	rng := mathx.NewRNG(42)
	net, _ := TinyCNN(1, 8, 5, rng)
	img := tensor.RandU(rng, 0, 1, 1, 8, 8)
	class, prob := net.Predict(img)
	probs := net.Probs(img)
	if class != mathx.ArgMax(probs) {
		t.Fatal("Predict class disagrees with Probs argmax")
	}
	if !mathx.EqualWithin(prob, probs[class], 1e-12) {
		t.Fatal("Predict prob disagrees with Probs")
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if !mathx.EqualWithin(sum, 1, 1e-9) {
		t.Fatalf("Probs sum = %v", sum)
	}
}

func TestNetworkInputShapeEnforced(t *testing.T) {
	rng := mathx.NewRNG(43)
	net, _ := TinyCNN(3, 16, 4, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shape input did not panic")
		}
	}()
	net.Probs(tensor.New(3, 8, 8))
}

func TestNetworkDeterministicForward(t *testing.T) {
	rng := mathx.NewRNG(44)
	net, _ := TinyCNN(1, 8, 3, rng)
	img := tensor.RandU(mathx.NewRNG(9), 0, 1, 1, 8, 8)
	a := net.Probs(img)
	b := net.Probs(img)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("eval-mode forward not deterministic")
		}
	}
}

func TestVGGNetTopology(t *testing.T) {
	rng := mathx.NewRNG(48)
	cfg := ScaledVGGConfig(3, 32, 43, 8)
	net, err := VGGNet(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.OutputClasses(); got != 43 {
		t.Fatalf("VGGNet classes = %d", got)
	}
	// 5 conv + 5 relu + 5 pool + flatten + fc = 17 layers (no dropout).
	if got := len(net.Layers()); got != 17 {
		t.Fatalf("VGGNet layer count = %d", got)
	}
	x := tensor.RandU(rng, 0, 1, 1, 3, 32, 32)
	out := net.Forward(x, false)
	if out.Dim(1) != 43 {
		t.Fatalf("VGGNet output shape = %v", out.Shape())
	}
}

func TestVGGNetPaperConfigWidths(t *testing.T) {
	cfg := ScaledVGGConfig(3, 32, 43, 1)
	want := [5]int{64, 128, 256, 512, 512}
	if cfg.Channels != want {
		t.Fatalf("paper config channels = %v", cfg.Channels)
	}
}

func TestVGGNetRejectsBadGeometry(t *testing.T) {
	rng := mathx.NewRNG(49)
	if _, err := VGGNet(ScaledVGGConfig(3, 33, 43, 8), rng); err == nil {
		t.Fatal("VGGNet accepted size not divisible by 32")
	}
	if _, err := VGGNet(ScaledVGGConfig(3, 32, 1, 8), rng); err == nil {
		t.Fatal("VGGNet accepted single class")
	}
	if _, err := VGGNet(ScaledVGGConfig(0, 32, 43, 8), rng); err == nil {
		t.Fatal("VGGNet accepted zero channels")
	}
	if _, err := TinyCNN(1, 9, 4, rng); err == nil {
		t.Fatal("TinyCNN accepted size not divisible by 8")
	}
}

func TestParamCountPositiveAndZeroGrads(t *testing.T) {
	rng := mathx.NewRNG(50)
	net, _ := TinyCNN(1, 8, 4, rng)
	if net.ParamCount() <= 0 {
		t.Fatal("ParamCount not positive")
	}
	// A training-mode pass is what accumulates parameter gradients; an
	// eval-mode gradient query leaves them alone (TestEvalBackwardIsInputGradOnly).
	batch := tensor.RandU(rng, 0, 1, 1, 1, 8, 8)
	_, dlogits := CrossEntropy{}.Eval(net.Forward(batch, true), []int{0})
	net.Backward(dlogits)
	dirty := false
	for _, p := range net.Params() {
		if p.Grad.L1Norm() > 0 {
			dirty = true
		}
	}
	if !dirty {
		t.Fatal("backward accumulated no parameter gradients")
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		if p.Grad.L1Norm() != 0 {
			t.Fatal("ZeroGrads left gradients")
		}
	}
}
