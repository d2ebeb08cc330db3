package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		For(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	For(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty index range")
	}
}

func TestForWorkerIDsAreInRange(t *testing.T) {
	const workers, n = 5, 200
	var bad atomic.Int32
	ForWorker(workers, n, func(worker, i int) {
		if worker < 0 || worker >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker id", bad.Load())
	}
}

func TestForWorkerClampsPoolToTaskCount(t *testing.T) {
	// With more workers than tasks, ids must stay below the task count so
	// callers can size per-worker resources by min(workers, n).
	ForWorker(16, 3, func(worker, i int) {
		if worker >= 3 {
			t.Errorf("worker id %d for a 3-task grid", worker)
		}
	})
}

func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in fn was swallowed")
		}
	}()
	For(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset; want >= 1", got)
	}
}
