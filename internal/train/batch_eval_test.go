package train

import (
	"testing"

	"repro/internal/filters"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestEvaluateBatchMatchesPerImage pins the batched-transform contract:
// filtering each mini-batch as a whole (the Filter.ApplyBatch path)
// produces metrics bit-identical to filtering image by image, at any
// worker count.
func TestEvaluateBatchMatchesPerImage(t *testing.T) {
	ds := newBlobDataset(50, 3, 8, 11)
	net := smallNet(t, 3, 5)
	f := filters.NewLAP(4)
	want := Evaluate(Clones(net, 1), ds, func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(imgs))
		for i, img := range imgs {
			out[i] = f.Apply(img)
		}
		return out
	})
	for _, workers := range []int{1, 3} {
		got := Evaluate(Clones(net, workers), ds, func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
			return f.ApplyBatch(imgs)
		})
		if got != want {
			t.Errorf("workers=%d: batched metrics %+v != per-image %+v", workers, got, want)
		}
	}
}

// TestEvaluateBatchIndices pins that the transform receives the dataset
// indices of its mini-batch, in order.
func TestEvaluateBatchIndices(t *testing.T) {
	ds := newBlobDataset(37, 2, 8, 3)
	net := smallNet(t, 2, 9)
	seen := make([]bool, ds.Len())
	Evaluate(Clones(net, 1), ds, func(imgs []*tensor.Tensor, idx []int) []*tensor.Tensor {
		if len(imgs) != len(idx) {
			t.Fatalf("imgs/idx length mismatch: %d vs %d", len(imgs), len(idx))
		}
		for j := 1; j < len(idx); j++ {
			if idx[j] != idx[j-1]+1 {
				t.Fatalf("non-contiguous mini-batch indices: %v", idx)
			}
		}
		for _, i := range idx {
			seen[i] = true
		}
		return imgs
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("sample %d never reached the transform", i)
		}
	}
}

// TestEvaluateBatchLengthGuard pins that a transform returning the wrong
// batch length panics instead of silently misaligning labels.
func TestEvaluateBatchLengthGuard(t *testing.T) {
	ds := newBlobDataset(8, 2, 8, 4)
	net := smallNet(t, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("length-changing transform did not panic")
		}
	}()
	Evaluate(Clones(net, 1), ds, func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
		return imgs[:len(imgs)-1]
	})
}

// TestEvaluateParallelStillBitIdentical re-pins the PR-1 determinism
// guarantee on the reworked evaluation core.
func TestEvaluateParallelStillBitIdentical(t *testing.T) {
	ds := newBlobDataset(60, 4, 8, 6)
	net := smallNet(t, 4, 2)
	f := filters.NewMedian(1)
	transform := func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor { return f.ApplyBatch(imgs) }
	serial := Evaluate(Clones(net, 1), ds, transform)
	old := parallel.Workers()
	parallel.SetWorkers(4)
	par := Evaluate(Clones(net, parallel.Workers()), ds, transform)
	parallel.SetWorkers(old)
	if serial != par {
		t.Fatalf("parallel evaluation diverged: %+v vs %+v", par, serial)
	}
}
