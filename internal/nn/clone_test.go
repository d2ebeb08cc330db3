package nn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

func testImages(n, ch, size int, seed uint64) []*tensor.Tensor {
	rng := mathx.NewRNG(seed)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = tensor.RandU(rng, 0, 1, ch, size, size)
	}
	return imgs
}

func TestCloneSharesWeightsOwnsGrads(t *testing.T) {
	net, err := TinyCNN(3, 16, 10, mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone()

	op, cp := net.Params(), clone.Params()
	if len(op) != len(cp) {
		t.Fatalf("clone has %d params, original %d", len(cp), len(op))
	}
	for i := range op {
		if op[i].Value != cp[i].Value {
			t.Errorf("param %s: clone does not alias the weight tensor", op[i].Name)
		}
		if op[i].Grad == cp[i].Grad {
			t.Errorf("param %s: clone shares the gradient accumulator", op[i].Name)
		}
	}

	// A weight update through the original must be visible to the clone.
	img := testImages(1, 3, 16, 1)[0]
	before := clone.Probs(img)
	op[0].Value.AddScalar(0.05)
	after := clone.Probs(img)
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("weight update on the original did not reach the clone")
	}
}

// TestConcurrentInferenceMatchesSerial is the -race witness for the
// thread-safe inference core: many goroutines run Probs and
// LossAndInputGrad simultaneously against weight-sharing clones of one
// network, and every result must be bit-identical to the serial answer.
func TestConcurrentInferenceMatchesSerial(t *testing.T) {
	net, err := TinyCNN(3, 16, 10, mathx.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	const nImages = 24
	imgs := testImages(nImages, 3, 16, 2)
	loss := CrossEntropy{}

	// Serial reference on the original network.
	wantProbs := make([][]float64, nImages)
	wantLoss := make([]float64, nImages)
	wantGrad := make([]*tensor.Tensor, nImages)
	for i, img := range imgs {
		wantProbs[i] = net.Probs(img)
		wantLoss[i], wantGrad[i] = net.LossAndInputGrad(img, i%10, loss)
	}

	const workers = 8
	gotProbs := make([][]float64, nImages)
	gotLoss := make([]float64, nImages)
	gotGrad := make([]*tensor.Tensor, nImages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := net.Clone()
			for i := w; i < nImages; i += workers {
				gotProbs[i] = worker.Probs(imgs[i])
				gotLoss[i], gotGrad[i] = worker.LossAndInputGrad(imgs[i], i%10, loss)
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < nImages; i++ {
		for c := range wantProbs[i] {
			if gotProbs[i][c] != wantProbs[i][c] {
				t.Fatalf("image %d class %d: concurrent prob %v != serial %v",
					i, c, gotProbs[i][c], wantProbs[i][c])
			}
		}
		if gotLoss[i] != wantLoss[i] {
			t.Fatalf("image %d: concurrent loss %v != serial %v", i, gotLoss[i], wantLoss[i])
		}
		wd, gd := wantGrad[i].Data(), gotGrad[i].Data()
		for j := range wd {
			if wd[j] != gd[j] {
				t.Fatalf("image %d grad[%d]: concurrent %v != serial %v", i, j, gd[j], wd[j])
			}
		}
	}
}

// TestScratchReuseKeepsRepeatedCallsIdentical guards the buffer-reuse
// refactor: repeated forward/backward passes through one instance must
// not leak state between calls, including across a batch-size change.
func TestScratchReuseKeepsRepeatedCallsIdentical(t *testing.T) {
	net, err := TinyCNN(3, 16, 10, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	img := testImages(1, 3, 16, 3)[0]
	loss := CrossEntropy{}

	l1, g1 := net.LossAndInputGrad(img, 4, loss)
	// Interleave a different input (different activation pattern) before
	// repeating the first, so stale scratch would be caught.
	other := testImages(1, 3, 16, 4)[0]
	net.LossAndInputGrad(other, 1, loss)
	l2, g2 := net.LossAndInputGrad(img, 4, loss)
	if l1 != l2 {
		t.Fatalf("repeated loss differs: %v vs %v", l1, l2)
	}
	d1, d2 := g1.Data(), g2.Data()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("repeated grad[%d] differs: %v vs %v", i, d1[i], d2[i])
		}
	}
}

// gradQueryNets are the dropout-free networks the gradient-query tests run
// on: the unit-test CNN and the tiny profile's VGG (filter widths ÷ 12).
func gradQueryNets(t *testing.T) map[string]*Network {
	t.Helper()
	cnn, err := TinyCNN(3, 16, 10, mathx.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	vgg, err := VGGNet(ScaledVGGConfig(3, 32, 43, 12), mathx.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Network{"tinycnn": cnn, "vgg-tiny": vgg}
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: %d elements, want %d", what, len(gd), len(wd))
	}
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s [%d] = %v, want %v", what, i, gd[i], wd[i])
		}
	}
}

// TestEvalBackwardIsInputGradOnly pins the rule a gradient query runs
// under: a Backward after an eval-mode Forward issues no work into any
// Param.Grad, and the input gradient it returns has the bits of the
// training-mode pass that does — on the original and on a clone.
func TestEvalBackwardIsInputGradOnly(t *testing.T) {
	for name, net := range gradQueryNets(t) {
		shape := net.InputShape()
		img := testImages(1, shape[0], shape[1], 23)[0]
		const label = 3
		loss := CrossEntropy{}

		// Reference: the training-mode pass (no dropout, no batch norm, so
		// it computes the same function) through the full backward.
		logits := net.Forward(img.Reshape(append([]int{1}, shape...)...), true)
		wantLoss, dlogits := loss.Eval(logits, []int{label})
		want := net.Backward(dlogits).Reshape(shape...)
		dirty := false
		for _, p := range net.Params() {
			dirty = dirty || p.Grad.L1Norm() > 0
		}
		if !dirty {
			t.Fatalf("%s: the training-mode backward accumulated no parameter gradient", name)
		}

		clone := net.Clone()
		for who, n := range map[string]*Network{"original": net, "clone": clone} {
			n.ZeroGrads()
			gotLoss, got := n.LossAndInputGrad(img, label, loss)
			if gotLoss != wantLoss {
				t.Fatalf("%s %s: loss %v, want %v", name, who, gotLoss, wantLoss)
			}
			sameBits(t, name+" "+who+" LossAndInputGrad dx", got, want)
			_, got = n.LogitsAndInputGradFrom(img, func([]float64) []float64 {
				return append([]float64(nil), dlogits.Data()...)
			})
			sameBits(t, name+" "+who+" LogitsAndInputGradFrom dx", got, want)
			for _, p := range n.Params() {
				if l1 := p.Grad.L1Norm(); l1 != 0 {
					t.Fatalf("%s %s: gradient query wrote %s (L1 %g)", name, who, p.Name, l1)
				}
			}
		}
	}
}

// TestGradientQueryAllocBudget is the deterministic half of the gradient
// query's cost gate (CI's ladder ratio is the timed half). One
// LossAndInputGrad on the tiny VGG made 465 allocations while every conv
// took three tensor views per image and ran the dW/db pass; it makes 285
// now. The budget is that count + 10 %; under -race the GEMM's sync.Pool
// drops buffers at random and the count reads 295–299, still inside it.
func TestGradientQueryAllocBudget(t *testing.T) {
	net := gradQueryNets(t)["vgg-tiny"]
	img := testImages(1, 3, 32, 24)[0]
	loss := CrossEntropy{}
	net.LossAndInputGrad(img, 3, loss) // grow the scratch buffers
	got := testing.AllocsPerRun(20, func() { net.LossAndInputGrad(img, 3, loss) })
	const budget = 285 * 1.1
	t.Logf("LossAndInputGrad on the tiny VGG: %.0f allocations", got)
	if got > budget {
		t.Fatalf("LossAndInputGrad on the tiny VGG made %.0f allocations, budget %.0f", got, budget)
	}
}

func TestCloneRejectsUnknownLayer(t *testing.T) {
	net := MustNetwork("custom", []int{4}, opaqueLayer{})
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a non-Cloner layer did not panic")
		}
	}()
	net.Clone()
}

// opaqueLayer is a minimal Layer that deliberately does not implement
// Cloner.
type opaqueLayer struct{}

func (opaqueLayer) Name() string                                        { return "opaque" }
func (opaqueLayer) Params() []*Param                                    { return nil }
func (opaqueLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (opaqueLayer) Backward(dout *tensor.Tensor) *tensor.Tensor         { return dout }
