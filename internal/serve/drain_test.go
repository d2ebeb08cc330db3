package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// TestGracefulDrainUnderLoad is the drain acceptance check: with an
// evaluate sweep and interactive predicts in flight, BeginDrain must
// (1) refuse new work with ErrDraining, (2) let every in-flight request
// run to completion — nothing hung, nothing dropped — and (3) leave
// Close to return cleanly afterwards. Run under -race in CI.
func TestGracefulDrainUnderLoad(t *testing.T) {
	chaos := &Chaos{}
	chaos.SetBatchDelay(30 * time.Millisecond) // keep predicts in flight long enough to drain around
	s := New(servePipeline(t), Options{
		Workers: 2, MaxBatch: 2, MaxWait: time.Millisecond,
		AttackWorkers: 1, CacheSize: -1, Chaos: chaos,
	})

	imgs := testImages(8)

	// One bulk evaluate in flight...
	evalDone := make(chan error, 1)
	go func() {
		_, err := s.Evaluate(context.Background(), EvaluateRequest{
			Specs: []string{"pgd(eps=0.05,steps=60)"},
			Cases: []EvalCase{{Source: 0, Target: 1, Image: imgs[0]}},
		})
		evalDone <- err
	}()
	// ...and several interactive predicts in flight.
	predDone := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			_, err := s.Predict(context.Background(), imgs[1+i], pipeline.TM1)
			predDone <- err
		}(i)
	}
	waitUntil(t, 5*time.Second, "load in flight", func() bool {
		return s.bulk.stats().Depth >= 1 && s.interactive.stats().Depth == 4
	})

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	// New work of either class is refused immediately...
	if _, err := s.Predict(context.Background(), imgs[6], pipeline.TM1); !errors.Is(err, ErrDraining) {
		t.Fatalf("new predict during drain got %v, want ErrDraining", err)
	}
	if _, err := s.Attack(context.Background(), AttackRequest{Spec: "fgsm(eps=0.1)", Image: imgs[7], Source: 0}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new attack during drain got %v, want ErrDraining", err)
	}
	// ...while everything in flight completes successfully.
	deadline := time.After(30 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-predDone:
			if err != nil {
				t.Fatalf("in-flight predict dropped during drain: %v", err)
			}
		case <-deadline:
			t.Fatal("in-flight predict hung during drain")
		}
	}
	select {
	case err := <-evalDone:
		if err != nil {
			t.Fatalf("in-flight evaluate dropped during drain: %v", err)
		}
	case <-deadline:
		t.Fatal("in-flight evaluate hung during drain")
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung after drain")
	}
	if _, err := s.Predict(context.Background(), imgs[1], pipeline.TM1); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("predict after Close got %v, want ErrServerClosed", err)
	}
}

// TestDrainIsIdempotentAndObservable: BeginDrain twice is safe, and the
// draining flag shows up in Stats.
func TestDrainIsIdempotentAndObservable(t *testing.T) {
	s := New(servePipeline(t), Options{Workers: 1, MaxBatch: 1, MaxWait: time.Millisecond})
	defer s.Close()
	if s.Stats().Draining {
		t.Fatal("fresh server reports draining")
	}
	s.BeginDrain()
	s.BeginDrain()
	if !s.Stats().Draining {
		t.Fatal("Stats().Draining false after BeginDrain")
	}
}

// gateFilter is an identity filter that reports when a worker has entered
// its filter stage and then holds the batch there until released.
type gateFilter struct {
	filters.Identity
	entered, release chan struct{}
}

func (g gateFilter) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	g.entered <- struct{}{}
	<-g.release
	return g.Identity.ApplyBatch(imgs)
}

// TestLateBatchReplyIsCached: a batch whose replies are collected only
// after Close drained the pools is a reply like any other — returned to
// the caller and stored, so the same images are cache hits afterwards.
func TestLateBatchReplyIsCached(t *testing.T) {
	gate := gateFilter{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := New(pipeline.New(serveNet(t), gate, nil), Options{Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond})
	imgs := testImages(2)
	type result struct {
		preds []Prediction
		err   error
	}
	got := make(chan result, 1)
	go func() {
		preds, err := s.Do(context.Background(), Request{Images: imgs, TM: pipeline.TM3})
		got <- result{preds, err}
	}()
	<-gate.entered // the worker holds the full batch; no reply exists yet
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitUntil(t, 5*time.Second, "Close to signal shutdown", func() bool {
		select {
		case <-s.done:
			return true
		default:
			return false
		}
	})
	time.Sleep(20 * time.Millisecond) // let Do reach its wait on the drained pools
	close(gate.release)
	r := <-got
	<-closed
	if r.err != nil || len(r.preds) != len(imgs) {
		t.Fatalf("Do across Close = (%d preds, %v), want the in-flight batch's replies", len(r.preds), r.err)
	}
	hits := s.cache.stats().Hits
	again, err := s.Do(context.Background(), Request{Images: imgs, TM: pipeline.TM3})
	if err != nil {
		t.Fatalf("repeat after Close: %v (late replies were not cached)", err)
	}
	if s.cache.stats().Hits != hits+uint64(len(imgs)) {
		t.Fatal("repeat after Close did not hit the cache")
	}
	for i := range imgs {
		if again[i].Class != r.preds[i].Class || again[i].Prob != r.preds[i].Prob {
			t.Fatalf("image %d: cached reply differs from the late reply", i)
		}
	}
}
