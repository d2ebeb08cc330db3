package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// serveNet returns a small deterministic (untrained) CNN: serving-layer
// tests check bit-exact equivalence and concurrency behaviour, not
// accuracy, so skipping training keeps the fixture fast.
var (
	netOnce sync.Once
	netInst *nn.Network
	netErr  error
)

func serveNet(t testing.TB) *nn.Network {
	t.Helper()
	netOnce.Do(func() { netInst, netErr = nn.TinyCNN(3, 16, 5, mathx.NewRNG(3)) })
	if netErr != nil {
		t.Fatalf("serve fixture: %v", netErr)
	}
	return netInst
}

func servePipeline(t testing.TB) *pipeline.Pipeline {
	return pipeline.New(serveNet(t), filters.NewLAP(8), pipeline.DefaultAcquisition(11))
}

func testImages(n int) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := gtsrb.Canonical(i%gtsrb.NumClasses, 16)
		if i >= gtsrb.NumClasses {
			img = img.Clone()
			img.ScaleInPlace(0.8)
		}
		imgs[i] = img
	}
	return imgs
}

// TestServeEquivalence is the core serving guarantee: a response that went
// through the coalescing queue and a batched worker forward is
// bit-identical to a direct Pipeline.Probs call for the same image and
// threat model.
func TestServeEquivalence(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	defer s.Close()

	imgs := testImages(12)
	tms := []pipeline.ThreatModel{pipeline.TM1, pipeline.TM2, pipeline.TM3}

	type job struct {
		img *tensor.Tensor
		tm  pipeline.ThreatModel
	}
	var jobs []job
	for i, img := range imgs {
		jobs = append(jobs, job{img, tms[i%len(tms)]})
	}
	want := make([][]float64, len(jobs))
	for i, j := range jobs {
		want[i] = pipe.Probs(j.img, j.tm)
	}

	got := make([]Prediction, len(jobs))
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			pred, err := s.Predict(context.Background(), j.img, j.tm)
			if err != nil {
				errs <- err
				return
			}
			got[i] = pred
		}(i, j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range jobs {
		if len(got[i].Probs) != len(want[i]) {
			t.Fatalf("job %d: %d probs, want %d", i, len(got[i].Probs), len(want[i]))
		}
		for c, v := range want[i] {
			if got[i].Probs[c] != v {
				t.Fatalf("job %d class %d: served %v, direct %v — served response not bit-identical",
					i, c, got[i].Probs[c], v)
			}
		}
		if best := mathx.ArgMax(want[i]); got[i].Class != best || got[i].Prob != want[i][best] {
			t.Fatalf("job %d: class/prob mismatch", i)
		}
		if got[i].TM != jobs[i].tm {
			t.Fatalf("job %d: echoed TM %v, want %v", i, got[i].TM, jobs[i].tm)
		}
	}
}

// TestServeFlushOnFull pins the flush-on-full path: with an effectively
// infinite linger, exactly MaxBatch concurrent requests must still be
// dispatched (as a single full batch) — if the full trigger were broken
// this test would time out.
func TestServeFlushOnFull(t *testing.T) {
	pipe := servePipeline(t)
	const maxBatch = 4
	s := New(pipe, Options{Workers: 1, MaxBatch: maxBatch, MaxWait: time.Hour})
	defer s.Close()

	imgs := testImages(maxBatch)
	var wg sync.WaitGroup
	errs := make(chan error, maxBatch)
	for _, img := range imgs {
		wg.Add(1)
		go func(img *tensor.Tensor) {
			defer wg.Done()
			if _, err := s.Predict(context.Background(), img, pipeline.TM3); err != nil {
				errs <- err
			}
		}(img)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Batches != 1 || st.MeanBatchOccupancy != maxBatch {
		t.Fatalf("flush-on-full: %d batches with occupancy %.1f, want 1 batch of %d",
			st.Batches, st.MeanBatchOccupancy, maxBatch)
	}
}

// TestServeFlushOnLinger pins the flush-on-linger path: a lone request in
// a huge-capacity batch must be answered once MaxWait elapses.
func TestServeFlushOnLinger(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 1, MaxBatch: 64, MaxWait: 2 * time.Millisecond})
	defer s.Close()

	start := time.Now()
	if _, err := s.Predict(context.Background(), testImages(1)[0], pipeline.TM2); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("lone request took %v — linger flush not firing", waited)
	}
	st := s.Stats()
	if st.Batches != 1 || st.Requests != 1 || st.MeanBatchOccupancy != 1 {
		t.Fatalf("linger stats = %+v, want one batch of one", st)
	}
}

// TestServeSoak is the short -race soak: concurrent clients mixing threat
// models and batch Do against one server, every response checked
// against the direct path.
func TestServeSoak(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 2, MaxBatch: 8, MaxWait: 500 * time.Microsecond})
	defer s.Close()

	imgs := testImages(6)
	tms := []pipeline.ThreatModel{pipeline.TM1, pipeline.TM2, pipeline.TM3}
	want := make(map[int]map[pipeline.ThreatModel][]float64)
	for i, img := range imgs {
		want[i] = make(map[pipeline.ThreatModel][]float64)
		for _, tm := range tms {
			want[i][tm] = pipe.Probs(img, tm)
		}
	}

	const clients, reqs = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				i := (c + r) % len(imgs)
				tm := tms[(c+r)%len(tms)]
				if c%3 == 0 && r%5 == 0 {
					preds, err := s.Do(context.Background(), Request{Images: imgs, TM: tm})
					if err != nil {
						errs <- err
						return
					}
					for k, p := range preds {
						if p.Prob != want[k][tm][p.Class] {
							errs <- errMismatch
							return
						}
					}
					continue
				}
				pred, err := s.Predict(context.Background(), imgs[i], tm)
				if err != nil {
					errs <- err
					return
				}
				for cls, v := range want[i][tm] {
					if pred.Probs[cls] != v {
						errs <- errMismatch
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests == 0 || st.Batches == 0 {
		t.Fatalf("soak recorded no traffic: %+v", st)
	}
	if st.MeanBatchOccupancy < 1 {
		t.Fatalf("mean occupancy %.2f < 1", st.MeanBatchOccupancy)
	}
	t.Logf("soak: %d requests in %d batches (occupancy %.2f, p50 %.2fms, p99 %.2fms)",
		st.Requests, st.Batches, st.MeanBatchOccupancy, st.P50LatencyMs, st.P99LatencyMs)
}

var errMismatch = errorString("served response differs from direct pipeline call")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestServeValidation(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond})
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Predict(ctx, nil, pipeline.TM2); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := s.Predict(ctx, tensor.New(3, 8, 8), pipeline.TM2); err == nil {
		t.Error("wrong-shape image accepted")
	}
	if _, err := s.Predict(ctx, testImages(1)[0], pipeline.ThreatModel(9)); err == nil {
		t.Error("bad threat model accepted")
	}
	// Default TM fills in for the zero value.
	pred, err := s.Predict(ctx, testImages(1)[0], 0)
	if err != nil {
		t.Fatalf("default TM predict: %v", err)
	}
	if pred.TM != pipeline.TM2 {
		t.Errorf("default TM = %v, want TM2", pred.TM)
	}
}

func TestServeClose(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Predict(context.Background(), testImages(1)[0], pipeline.TM2); err != ErrServerClosed {
		t.Fatalf("Predict after Close = %v, want ErrServerClosed", err)
	}
	if _, err := s.Do(context.Background(), Request{Images: testImages(2), TM: pipeline.TM2}); err != ErrServerClosed {
		t.Fatalf("Do after Close = %v, want ErrServerClosed", err)
	}
}

func TestServeContextCancel(t *testing.T) {
	pipe := servePipeline(t)
	// A server whose batcher lingers forever with a huge batch target never
	// answers a lone request — the client's context must get it out.
	s := New(pipe, Options{Workers: 1, MaxBatch: 64, MaxWait: time.Hour})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Predict(ctx, testImages(1)[0], pipeline.TM2); err != context.DeadlineExceeded {
		t.Fatalf("Predict under cancelled context = %v, want deadline exceeded", err)
	}
}

// TestServeShedsCanceled pins the overload-shedding path: a request whose
// client gave up (canceled context) while waiting in the batch must not
// cost the worker a delivery + forward, and must not distort the
// occupancy counters.
func TestServeShedsCanceled(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 1, MaxBatch: 2, MaxWait: time.Hour})
	defer s.Close()
	imgs := testImages(2)

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctxA, imgs[0], pipeline.TM3)
		errA <- err
	}()
	// Wait until A is definitely enqueued (Requests counts enqueues) so
	// the second request below is guaranteed to fill the 2-slot batch.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Requests < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request A never enqueued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelA()

	pred, err := s.Predict(context.Background(), imgs[1], pipeline.TM3)
	if err != nil {
		t.Fatal(err)
	}
	want := pipe.Probs(imgs[1], pipeline.TM3)
	if pred.Prob != want[pred.Class] {
		t.Fatal("live request's response wrong after shedding a neighbour")
	}
	if e := <-errA; e != context.Canceled {
		t.Fatalf("canceled client got %v, want context.Canceled", e)
	}
	st := s.Stats()
	if st.Batches != 1 || st.MeanBatchOccupancy != 1 {
		t.Fatalf("shed slot still counted as processed: %+v", st)
	}
}
