package train

import (
	"fmt"
	"io"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config controls a training run.
type Config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size (clamped to the dataset size).
	BatchSize int
	// Schedule supplies the per-epoch learning rate (1e-3 when nil).
	Schedule Schedule
	// Seed drives shuffling; runs with equal seeds are identical.
	Seed uint64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// EpochStats records the outcome of one training epoch.
type EpochStats struct {
	Epoch     int
	MeanLoss  float64
	TrainTop1 float64
	LR        float64
}

// Result summarizes a training run.
type Result struct {
	Epochs []EpochStats
}

// Fit trains the network on ds with Adam on softmax cross-entropy
// according to cfg and returns per-epoch statistics. It is fully
// deterministic for a fixed seed.
func Fit(net *nn.Network, ds Dataset, cfg Config) (Result, error) {
	if ds.Len() == 0 {
		return Result{}, fmt.Errorf("train: empty dataset")
	}
	if cfg.Epochs <= 0 {
		return Result{}, fmt.Errorf("train: epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return Result{}, fmt.Errorf("train: batch size must be positive, got %d", cfg.BatchSize)
	}
	opt := newAdam()
	sched := cfg.Schedule
	if sched == nil {
		sched = ConstantLR(1e-3)
	}
	rng := mathx.NewRNG(cfg.Seed)
	n := ds.Len()
	bs := cfg.BatchSize
	if bs > n {
		bs = n
	}

	var res Result
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := sched.LR(epoch)
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		var correct, seen int
		batches := 0
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			imgs := make([]*tensor.Tensor, 0, end-start)
			labels := make([]int, 0, end-start)
			for _, idx := range order[start:end] {
				img, label := ds.Sample(idx)
				imgs = append(imgs, img)
				labels = append(labels, label)
			}
			batch := tensor.Stack(imgs)
			net.ZeroGrads()
			logits := net.Forward(batch, true)
			lv, dlogits := nn.CrossEntropy{}.Eval(logits, labels)
			net.Backward(dlogits)
			opt.step(net.Params(), lr)
			lossSum += lv
			batches++
			// Batch top-1 from the already-computed logits.
			for r := 0; r < logits.Dim(0); r++ {
				if mathx.ArgMax(logits.Row(r).Data()) == labels[r] {
					correct++
				}
			}
			seen += len(labels)
		}
		stats := EpochStats{
			Epoch:     epoch,
			MeanLoss:  lossSum / float64(batches),
			TrainTop1: float64(correct) / float64(seen),
			LR:        lr,
		}
		res.Epochs = append(res.Epochs, stats)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  top1 %.2f%%  lr %.2e\n",
				epoch, stats.MeanLoss, 100*stats.TrainTop1, lr)
		}
	}
	return res, nil
}
