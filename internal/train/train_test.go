package train

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// blobDataset is a tiny in-memory classification task: class k images are
// constant blocks of intensity around k's level plus noise, trivially
// learnable by a small network.
type blobDataset struct {
	imgs   []*tensor.Tensor
	labels []int
}

func newBlobDataset(n, classes, size int, seed uint64) *blobDataset {
	rng := mathx.NewRNG(seed)
	ds := &blobDataset{}
	for i := 0; i < n; i++ {
		label := i % classes
		img := tensor.New(1, size, size)
		base := float64(label) / float64(classes)
		for j := range img.Data() {
			img.Data()[j] = mathx.Clamp01(base + rng.NormScaled(0, 0.04))
		}
		ds.imgs = append(ds.imgs, img)
		ds.labels = append(ds.labels, label)
	}
	return ds
}

func (d *blobDataset) Len() int { return len(d.imgs) }
func (d *blobDataset) Sample(i int) (*tensor.Tensor, int) {
	return d.imgs[i], d.labels[i]
}

func smallNet(t *testing.T, classes int, seed uint64) *nn.Network {
	t.Helper()
	rng := mathx.NewRNG(seed)
	net, err := nn.NewNetwork("mlp", []int{1, 8, 8},
		nn.NewFlatten("flat"),
		nn.NewDense("fc1", 64, 32, rng),
		nn.NewReLU("relu1"),
		nn.NewDenseXavier("fc2", 32, classes, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestFitLearnsBlobTask(t *testing.T) {
	ds := newBlobDataset(120, 4, 8, 1)
	net := smallNet(t, 4, 2)
	res, err := Fit(net, ds, Config{
		Epochs:    12,
		BatchSize: 16,
		Schedule:  ConstantLR(1e-2),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Epochs[0].MeanLoss
	last := res.Epochs[len(res.Epochs)-1].MeanLoss
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	m := Evaluate(Clones(net, 1), ds, nil)
	if m.Top1 < 0.9 {
		t.Fatalf("top1 after training = %v, want >= 0.9", m.Top1)
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		ds := newBlobDataset(60, 3, 8, 7)
		net := smallNet(t, 3, 11)
		res, err := Fit(net, ds, Config{Epochs: 3, BatchSize: 8, Schedule: ConstantLR(1e-3), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for _, e := range res.Epochs {
			losses = append(losses, e.MeanLoss)
		}
		return losses
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic: %v vs %v", a, b)
		}
	}
}

func TestFitValidatesConfig(t *testing.T) {
	ds := newBlobDataset(10, 2, 8, 1)
	net := smallNet(t, 2, 1)
	if _, err := Fit(net, ds, Config{Epochs: 0, BatchSize: 4}); err == nil {
		t.Fatal("Epochs=0 accepted")
	}
	if _, err := Fit(net, ds, Config{Epochs: 1, BatchSize: 0}); err == nil {
		t.Fatal("BatchSize=0 accepted")
	}
	if _, err := Fit(net, &blobDataset{}, Config{Epochs: 1, BatchSize: 4}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestFitLogsEpochs(t *testing.T) {
	ds := newBlobDataset(20, 2, 8, 2)
	net := smallNet(t, 2, 3)
	var sb strings.Builder
	if _, err := Fit(net, ds, Config{Epochs: 2, BatchSize: 8, Log: &sb, Schedule: ConstantLR(1e-3)}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "epoch"); got != 2 {
		t.Fatalf("logged %d epoch lines, want 2", got)
	}
}

func TestOptimizersReduceQuadraticLoss(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 directly through Fit's optimizer
	// using a single parameter.
	opt := newAdam()
	rng := mathx.NewRNG(31)
	p := &nn.Param{
		Name:  "w",
		Value: tensor.RandN(rng, 10),
		Grad:  tensor.New(10),
	}
	target := tensor.RandN(rng, 10)
	lossAt := func() float64 { return tensor.Sub(p.Value, target).L2Norm() }
	initial := lossAt()
	for i := 0; i < 200; i++ {
		diff := tensor.Sub(p.Value, target)
		p.Grad.Zero()
		p.Grad.AddScaled(2, diff)
		opt.step([]*nn.Param{p}, 0.05)
	}
	if final := lossAt(); final > initial/10 {
		t.Errorf("adam: loss %v -> %v, expected 10x reduction", initial, final)
	}
}

func TestSchedules(t *testing.T) {
	if got := (ConstantLR(0.1)).LR(99); got != 0.1 {
		t.Errorf("ConstantLR = %v", got)
	}
	cd := CosineDecay{Base: 1, Floor: 0.1, Total: 11}
	if got := cd.LR(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("CosineDecay.LR(0) = %v", got)
	}
	if got := cd.LR(10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("CosineDecay.LR(10) = %v", got)
	}
	if got := cd.LR(100); got != 0.1 {
		t.Errorf("CosineDecay past end = %v", got)
	}
	mid := cd.LR(5)
	if mid <= 0.1 || mid >= 1 {
		t.Errorf("CosineDecay midpoint = %v not between floor and base", mid)
	}
}

func TestTopKCorrect(t *testing.T) {
	probs := []float64{0.1, 0.4, 0.3, 0.15, 0.05}
	if !TopKCorrect(probs, 1, 1) {
		t.Error("top1 missed argmax")
	}
	if TopKCorrect(probs, 4, 3) {
		t.Error("top3 included the least likely class")
	}
	if !TopKCorrect(probs, 3, 4) {
		t.Error("top4 missed 4th class")
	}
}

func TestEvaluateTransformHook(t *testing.T) {
	ds := newBlobDataset(40, 2, 8, 9)
	net := smallNet(t, 2, 10)
	if _, err := Fit(net, ds, Config{Epochs: 10, BatchSize: 8, Schedule: ConstantLR(1e-2), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	clean := Evaluate(Clones(net, 1), ds, nil)
	// A transform that destroys the images should crater accuracy.
	destroyed := Evaluate(Clones(net, 1), ds, func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(imgs))
		for i, img := range imgs {
			out[i] = img.Clone()
			out[i].Fill(0.5)
		}
		return out
	})
	if clean.Top1 < 0.9 {
		t.Fatalf("clean top1 = %v", clean.Top1)
	}
	if destroyed.Top1 > 0.75 {
		t.Fatalf("destroyed-input top1 = %v, expected chance-ish", destroyed.Top1)
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	net := smallNet(t, 2, 14)
	m := Evaluate(Clones(net, 1), &blobDataset{}, nil)
	if m.N != 0 || m.Top1 != 0 {
		t.Fatalf("empty Evaluate = %+v", m)
	}
}

// TestEvaluateBatchedMatchesPerImage pins the batched evaluation path:
// Evaluate scores evalBatchSize mini-batches through ProbsBatch, and the
// resulting metrics must be bit-identical to a serial per-image evaluation
// (for any worker count — worker 1 vs 4 is covered by the experiments
// package's parallel determinism test).
func TestEvaluateBatchedMatchesPerImage(t *testing.T) {
	// 37 samples: exercises a full chunk, a partial tail chunk, and an
	// odd count that does not divide the batch size.
	ds := newBlobDataset(37, 4, 8, 9)
	net := smallNet(t, 4, 10)
	if _, err := Fit(net, ds, Config{Epochs: 2, BatchSize: 8, Schedule: ConstantLR(0.05), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	scale := func(img *tensor.Tensor) *tensor.Tensor {
		out := img.Clone()
		out.ScaleInPlace(0.9)
		return out
	}
	transform := func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(imgs))
		for i, img := range imgs {
			out[i] = scale(img)
		}
		return out
	}

	for _, tr := range []BatchTransform{nil, transform} {
		got := Evaluate(Clones(net, 1), ds, tr)

		// Reference: serial, batch-of-1, same reduction order.
		var top1, top5, conf, trueProb float64
		for i := 0; i < ds.Len(); i++ {
			img, label := ds.Sample(i)
			if tr != nil {
				img = scale(img)
			}
			probs := net.Probs(img)
			pred := mathx.ArgMax(probs)
			if pred == label {
				top1++
			}
			if TopKCorrect(probs, label, 5) {
				top5++
			}
			conf += probs[pred]
			trueProb += probs[label]
		}
		inv := 1 / float64(ds.Len())
		want := Metrics{
			N:              ds.Len(),
			Top1:           top1 * inv,
			Top5:           top5 * inv,
			MeanConfidence: conf * inv,
			MeanTrueProb:   trueProb * inv,
		}
		if got != want {
			t.Fatalf("batched Evaluate = %+v, per-image reference = %+v", got, want)
		}
	}
}
