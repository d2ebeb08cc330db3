package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// TestPredictFloat32Lane checks the fast lane end to end through the
// micro-batching path: a float32 prediction must be bit-identical to a
// direct Pipeline.Probs32 call (delivery in float64, forward in float32)
// and close to the float64 lane's answer.
func TestPredictFloat32Lane(t *testing.T) {
	pipe := servePipeline(t)
	if err := pipe.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	s := New(pipe, Options{Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond, CacheSize: -1})
	defer s.Close()
	for i, img := range testImages(6) {
		p32, err := first(s.Do(context.Background(), Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM2, Precision: pipeline.Float32}))
		if err != nil {
			t.Fatal(err)
		}
		if p32.Precision != pipeline.Float32 {
			t.Fatalf("image %d: reply precision %v", i, p32.Precision)
		}
		want := pipe.Probs32(img, pipeline.TM2)
		for j := range want {
			if p32.Probs[j] != want[j] {
				t.Fatalf("image %d: served f32 row differs from direct Probs32 at class %d", i, j)
			}
		}
		p64, err := first(s.Do(context.Background(), Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM2, Precision: pipeline.Float64}))
		if err != nil {
			t.Fatal(err)
		}
		if p64.Class != p32.Class {
			t.Fatalf("image %d: top-1 disagrees across lanes (%d vs %d)", i, p64.Class, p32.Class)
		}
		for j := range want {
			if d := math.Abs(p64.Probs[j] - p32.Probs[j]); d > 1e-3 {
				t.Fatalf("image %d class %d: |Δprob| = %g across lanes", i, j, d)
			}
		}
	}
}

// TestPredictDefault64Unchanged pins that a request on the default lane
// is still bit-identical to the float64 pipeline — the precision split in
// process() must not perturb pure-float64 batches.
func TestPredictDefault64Unchanged(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 1, MaxBatch: 4, MaxWait: time.Millisecond, CacheSize: -1})
	defer s.Close()
	img := testImages(1)[0]
	pred, err := s.Predict(context.Background(), img, pipeline.TM2)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Precision != pipeline.Float64 {
		t.Fatalf("default precision = %v", pred.Precision)
	}
	want := pipe.Probs(img, pipeline.TM2)
	for j := range want {
		if pred.Probs[j] != want[j] {
			t.Fatalf("default-lane row differs from Pipeline.Probs at class %d", j)
		}
	}
}

// TestPrecisionCacheIsolation is the cache-key guarantee: the same image
// under the same threat model on different lanes must occupy two cache
// entries, and a float32 hit must return the float32 result (which is
// generally not bit-identical to the float64 one).
func TestPrecisionCacheIsolation(t *testing.T) {
	pipe := servePipeline(t)
	s := New(pipe, Options{Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond, CacheSize: 64})
	defer s.Close()
	img := testImages(1)[0]
	ctx := context.Background()

	p64, err := first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM3, Precision: pipeline.Float64}))
	if err != nil {
		t.Fatal(err)
	}
	p32, err := first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM3, Precision: pipeline.Float32}))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache entries = %d, want 2 (one per lane)", got)
	}
	// Both repeats must now be hits, each bit-identical to its own lane.
	hitsBefore := s.cache.stats().Hits
	r64, err := first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM3, Precision: pipeline.Float64}))
	if err != nil {
		t.Fatal(err)
	}
	r32, err := first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM3, Precision: pipeline.Float32}))
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.stats().Hits != hitsBefore+2 {
		t.Fatalf("repeat lookups were not both cache hits")
	}
	for j := range p64.Probs {
		if r64.Probs[j] != p64.Probs[j] {
			t.Fatalf("f64 cache hit differs from original at class %d", j)
		}
		if r32.Probs[j] != p32.Probs[j] {
			t.Fatalf("f32 cache hit differs from original at class %d", j)
		}
	}
	if r64.Precision != pipeline.Float64 || r32.Precision != pipeline.Float32 {
		t.Fatalf("cache hits lost their precision labels: %v / %v", r64.Precision, r32.Precision)
	}
}

// TestPrecisionMixedBatch coalesces float32 and float64 requests into the
// same micro-batches and checks each reply against its own lane.
func TestPrecisionMixedBatch(t *testing.T) {
	pipe := servePipeline(t)
	if err := pipe.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	s := New(pipe, Options{Workers: 1, MaxBatch: 8, MaxWait: 5 * time.Millisecond, CacheSize: -1})
	defer s.Close()
	imgs := testImages(8)
	type res struct {
		i    int
		pred Prediction
		err  error
	}
	ch := make(chan res, len(imgs))
	for i, img := range imgs {
		prec := pipeline.Float64
		if i%2 == 1 {
			prec = pipeline.Float32
		}
		go func(i int, prec pipeline.Precision) {
			p, err := first(s.Do(context.Background(), Request{Images: []*tensor.Tensor{imgs[i]}, TM: pipeline.TM1, Precision: prec}))
			ch <- res{i, p, err}
		}(i, prec)
		_ = img
	}
	for range imgs {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		var want []float64
		if r.i%2 == 1 {
			want = pipe.Probs32(imgs[r.i], pipeline.TM1)
		} else {
			want = pipe.Probs(imgs[r.i], pipeline.TM1)
		}
		for j := range want {
			if r.pred.Probs[j] != want[j] {
				t.Fatalf("slot %d (prec %v) differs from its lane at class %d", r.i, r.pred.Precision, j)
			}
		}
	}
}

// TestPrecisionDefaultLaneFloat32 runs a server whose default lane is
// float32: Predict without an explicit lane must serve float32 results.
func TestPrecisionDefaultLaneFloat32(t *testing.T) {
	pipe := servePipeline(t)
	if err := pipe.EnableFloat32(); err != nil {
		t.Fatal(err)
	}
	s := New(pipe, Options{
		Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond,
		Precision: pipeline.Float32, CacheSize: -1,
	})
	defer s.Close()
	if s.DefaultPrecision() != pipeline.Float32 {
		t.Fatalf("DefaultPrecision = %v", s.DefaultPrecision())
	}
	img := testImages(1)[0]
	pred, err := s.Predict(context.Background(), img, pipeline.TM2)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Precision != pipeline.Float32 {
		t.Fatalf("default-lane reply precision = %v", pred.Precision)
	}
	want := pipe.Probs32(img, pipeline.TM2)
	for j := range want {
		if pred.Probs[j] != want[j] {
			t.Fatalf("f32-default reply differs from Probs32 at class %d", j)
		}
	}
}
