package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestChaosWorkerKillRequeues: a killed worker must hand its batch back
// to the queue — every request still completes, correctly, on the
// survivors.
func TestChaosWorkerKillRequeues(t *testing.T) {
	chaos := &Chaos{}
	s := New(servePipeline(t), Options{
		Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond,
		CacheSize: -1, Chaos: chaos,
	})
	defer s.Close()

	chaos.KillWorkers(1)
	pipe := servePipeline(t)
	imgs := testImages(20)
	// The shared fixture network is not goroutine-safe (workers clone it);
	// compute the expected probs serially before fanning out.
	want := make([][]float64, len(imgs))
	for i, img := range imgs {
		want[i] = pipe.Probs(img, pipeline.TM1)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(imgs))
	for i, img := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, err := s.Predict(context.Background(), img, pipeline.TM1)
			if err != nil {
				errs <- err
				return
			}
			for j := range want[i] {
				if pred.Probs[j] != want[i][j] {
					errs <- fmt.Errorf("prediction differs from direct pipeline after worker kill")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestChaosBatchFailure: an injected batch panic must surface as a
// per-request inference error, leave the server healthy, and be counted.
func TestChaosBatchFailure(t *testing.T) {
	chaos := &Chaos{}
	s := New(servePipeline(t), Options{
		Workers: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		CacheSize: -1, Chaos: chaos,
	})
	defer s.Close()

	imgs := testImages(2)
	chaos.FailBatches(1)
	_, err := s.Predict(context.Background(), imgs[0], pipeline.TM1)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("injected failure surfaced as %v", err)
	}
	if _, err := s.Predict(context.Background(), imgs[1], pipeline.TM1); err != nil {
		t.Fatalf("server unhealthy after injected batch failure: %v", err)
	}
	var metrics strings.Builder
	s.WritePrometheus(&metrics)
	if want := "fademl_inference_panics_total 1\n"; !strings.Contains(metrics.String(), want) {
		t.Fatalf("/metrics does not count the recovered panic: missing %q", want)
	}
}

// percentile returns the p-quantile of sorted durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p * float64(len(ds)-1))
	return ds[i]
}

// TestOverloadTailLatency is the survivability acceptance check at the
// single-replica level: with one of two inference workers killed and the
// bulk lane saturated at 2× its capacity by live crafting jobs,
// interactive predict p99 must stay within 5× the unloaded p99 (with an
// absolute floor to keep the bound meaningful on sub-millisecond
// baselines), and the excess bulk load must be shed, not queued.
func TestOverloadTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short")
	}
	const bulkLimit = 2
	chaos := &Chaos{}
	s := New(servePipeline(t), Options{
		Workers: 2, MaxBatch: 8, MaxWait: 500 * time.Microsecond,
		AttackWorkers: 2, BulkLimit: bulkLimit,
		CacheSize: -1, Chaos: chaos,
	})
	defer s.Close()

	imgs := testImages(64)
	measure := func(n, offset int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			start := time.Now()
			if _, err := s.Predict(context.Background(), imgs[(offset+i)%len(imgs)], pipeline.TM2); err != nil {
				t.Fatalf("predict %d: %v", i, err)
			}
			ds[i] = time.Since(start)
		}
		return ds
	}

	measure(8, 0) // warm-up
	baseline := percentile(measure(40, 8), 0.99)

	// Saturate bulk at 2× capacity: 2×BulkLimit clients looping attack
	// jobs. At most bulkLimit are ever admitted; the rest shed.
	var stop atomic.Bool
	var shed, completed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 2*bulkLimit; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				_, err := s.Attack(context.Background(), AttackRequest{
					Spec:   "pgd(eps=0.05,steps=400)",
					Image:  imgs[c%len(imgs)],
					Source: 0,
				})
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
					time.Sleep(time.Millisecond)
				case errors.Is(err, ErrServerClosed):
					return
				default:
					// Attack outcomes (budget truncation etc.) are not
					// what this test is about.
					completed.Add(1)
				}
			}
		}(c)
	}
	waitUntil(t, 10*time.Second, "bulk lane saturation", func() bool {
		return s.bulk.stats().Depth >= bulkLimit && shed.Load() > 0
	})

	chaos.KillWorkers(1) // 1 of 2 inference workers dies mid-overload

	loaded := percentile(measure(40, 48), 0.99)
	stop.Store(true)
	wg.Wait()

	bound := 5 * baseline
	if floor := 500 * time.Millisecond; bound < floor {
		bound = floor
	}
	if loaded > bound {
		t.Fatalf("predict p99 under overload %v exceeds bound %v (unloaded %v)", loaded, bound, baseline)
	}
	if shed.Load() == 0 {
		t.Fatal("2× bulk overload produced no sheds")
	}
	if st := s.Stats().Bulk; st.Shed == 0 {
		t.Fatal("bulk lane stats missing sheds")
	}
	t.Logf("predict p99 unloaded %v, overloaded %v (bound %v); bulk completed %d shed %d",
		baseline, loaded, bound, completed.Load(), shed.Load())
}
