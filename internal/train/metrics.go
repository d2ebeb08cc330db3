package train

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Dataset is the minimal data access contract the trainer and metric
// helpers need. internal/gtsrb implements it; tests use in-memory stubs.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Sample returns the i-th image as a CHW tensor and its class label.
	// Implementations may return a shared/stored tensor; callers must not
	// mutate it.
	Sample(i int) (*tensor.Tensor, int)
}

// evalBatchSize is the mini-batch each evaluation worker scores through
// one batched forward pass. Sixteen 32×32 RGB images keep the per-worker
// im2col scratch a few MB while amortizing per-image dispatch overhead.
const evalBatchSize = 16

// TopKCorrect reports whether label is among the k highest-probability
// entries of probs.
func TopKCorrect(probs []float64, label, k int) bool {
	for _, idx := range mathx.TopKIndices(probs, k) {
		if idx == label {
			return true
		}
	}
	return false
}

// Metrics summarizes classifier performance over a dataset.
type Metrics struct {
	// N is the number of evaluated samples.
	N int
	// Top1 and Top5 are accuracy fractions in [0, 1].
	Top1, Top5 float64
	// MeanConfidence is the average probability assigned to the predicted
	// class — the "confidence" quantity the paper's figures report.
	MeanConfidence float64
	// MeanTrueProb is the average probability assigned to the correct class.
	MeanTrueProb float64
}

// String renders the metrics in a single log-friendly line.
func (m Metrics) String() string {
	return fmt.Sprintf("n=%d top1=%.2f%% top5=%.2f%% conf=%.2f%%",
		m.N, 100*m.Top1, 100*m.Top5, 100*m.MeanConfidence)
}

// BatchTransform maps one evaluation mini-batch to the tensors actually
// scored: imgs are the raw samples, idx their dataset indices (parallel
// slices). The returned slice must have len(imgs) entries; entry i
// replaces imgs[i]. Implementations must be pure per sample so parallel
// evaluation stays bit-identical to serial.
type BatchTransform func(imgs []*tensor.Tensor, idx []int) []*tensor.Tensor

// Clones returns the worker networks for Evaluate: net itself plus n-1
// weight-sharing clones (nn.Network.Clone). n < 1 counts as 1. Callers
// that evaluate many datasets against one network (the Fig. 7/9 curve
// sweeps run one evaluation per attack × scenario × filter cell) reuse one
// clone set instead of cloning per call.
func Clones(net *nn.Network, n int) []*nn.Network {
	nets := []*nn.Network{net}
	for len(nets) < n {
		nets = append(nets, net.Clone())
	}
	return nets
}

// Evaluate runs the networks over every sample of ds and returns aggregate
// metrics. nets are net plus weight-sharing clones of it (see Clones);
// len(nets) bounds the worker count, and each entry is only ever used by
// one goroutine per call. Each worker mini-batch is handed to transform as
// a whole (raw samples plus their dataset indices) before the batched
// forward pass — the hook the experiment harness uses to route evaluation
// through attacks, acquisition and filters (Filter.ApplyBatch of a filter
// or of a Pipeline.AttackerModel stage). transform may be nil (clean
// evaluation); otherwise it must be safe for concurrent calls. Results are bit-identical to a
// serial run regardless of worker count.
func Evaluate(nets []*nn.Network, ds Dataset, transform BatchTransform) Metrics {
	if len(nets) == 0 {
		panic("train: Evaluate needs at least one network")
	}
	var m Metrics
	n := ds.Len()
	if n == 0 {
		return m
	}
	// Samples are scored in mini-batches of evalBatchSize per worker: one
	// batched forward pass (nn.Network.ProbsBatch) replaces evalBatchSize
	// batch-of-1 dispatches. Batched rows are bit-identical to single-image
	// Probs calls, and the per-sample results land in index-addressed slots
	// with the floating-point reduction running serially in sample order —
	// so the metrics are bit-identical to a serial, unbatched evaluation
	// regardless of worker count.
	chunks := (n + evalBatchSize - 1) / evalBatchSize
	workers := len(nets)
	if workers > chunks {
		workers = chunks
	}
	type sampleStat struct {
		top1, top5     bool
		conf, trueProb float64
	}
	stats := make([]sampleStat, n)
	imgs := make([][]*tensor.Tensor, workers)
	labels := make([][]int, workers)
	for w := range imgs {
		imgs[w] = make([]*tensor.Tensor, 0, evalBatchSize)
		labels[w] = make([]int, 0, evalBatchSize)
	}
	idxs := make([][]int, workers)
	for w := range idxs {
		idxs[w] = make([]int, 0, evalBatchSize)
	}
	parallel.ForWorker(workers, chunks, func(worker, chunk int) {
		lo := chunk * evalBatchSize
		hi := lo + evalBatchSize
		if hi > n {
			hi = n
		}
		batch, lab, idx := imgs[worker][:0], labels[worker][:0], idxs[worker][:0]
		for i := lo; i < hi; i++ {
			img, label := ds.Sample(i)
			batch = append(batch, img)
			lab = append(lab, label)
			idx = append(idx, i)
		}
		if transform != nil {
			batch = transform(batch, idx)
			if len(batch) != hi-lo {
				panic("train: batch transform changed the batch length")
			}
		}
		rows := nets[worker].ProbsBatch(batch)
		for i := lo; i < hi; i++ {
			probs, label := rows[i-lo], lab[i-lo]
			pred := mathx.ArgMax(probs)
			stats[i] = sampleStat{
				top1:     pred == label,
				top5:     TopKCorrect(probs, label, 5),
				conf:     probs[pred],
				trueProb: probs[label],
			}
		}
	})

	var top1, top5, conf, trueProb float64
	for i := range stats {
		if stats[i].top1 {
			top1++
		}
		if stats[i].top5 {
			top5++
		}
		conf += stats[i].conf
		trueProb += stats[i].trueProb
	}
	inv := 1 / float64(n)
	return Metrics{
		N:              n,
		Top1:           top1 * inv,
		Top5:           top5 * inv,
		MeanConfidence: conf * inv,
		MeanTrueProb:   trueProb * inv,
	}
}
