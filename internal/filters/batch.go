package filters

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// SerialBatch applies f to every image one at a time — the default
// ApplyBatch fallback for filters whose per-image cost is too small to
// justify fan-out. out[i] is Apply(imgs[i]) by construction.
func SerialBatch(f Filter, imgs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		out[i] = f.Apply(img)
	}
	return out
}

// parallelBatch fans Apply out over the process-wide internal/parallel
// pool, one task per image. Every Apply in this package is a pure
// function of its input and results land in index-addressed slots, so
// the output is bit-identical to SerialBatch regardless of worker count.
//
// When the caller is itself a pool worker (an evaluation mini-batch
// inside train.Evaluate, a grid cell of a figure sweep), the
// CPU is already saturated — a nested fan-out would spawn up to
// workers² runnable goroutines for no throughput. parallel.Active
// detects that and degrades to the inline serial loop, which produces
// the same bits.
func parallelBatch(f Filter, imgs []*tensor.Tensor) []*tensor.Tensor {
	if len(imgs) < 2 || parallel.Active() > 0 {
		return SerialBatch(f, imgs)
	}
	out := make([]*tensor.Tensor, len(imgs))
	parallel.For(0, len(imgs), func(i int) { out[i] = f.Apply(imgs[i]) })
	return out
}
