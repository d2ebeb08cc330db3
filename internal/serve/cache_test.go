package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func cacheServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 8
	}
	if opts.MaxWait == 0 {
		opts.MaxWait = time.Millisecond
	}
	s := New(servePipeline(t), opts)
	t.Cleanup(s.Close)
	return s
}

// TestCacheHitBitIdentical: a repeat query must be served from cache —
// no second enqueue — and the cached prediction must be bit-identical
// to the computed one.
func TestCacheHitBitIdentical(t *testing.T) {
	s := cacheServer(t, Options{})
	img := testImages(1)[0]

	first, err := s.Predict(context.Background(), img, pipeline.TM2)
	if err != nil {
		t.Fatal(err)
	}
	enqueued := s.Stats().Requests
	second, err := s.Predict(context.Background(), img, pipeline.TM2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Requests; got != enqueued {
		t.Fatalf("repeat query enqueued work: %d -> %d requests", enqueued, got)
	}
	if st := s.Stats().Cache; st.Hits != 1 {
		t.Fatalf("cache hits %d, want 1", st.Hits)
	}
	if first.Class != second.Class || first.Prob != second.Prob {
		t.Fatalf("cached prediction differs: %+v vs %+v", first, second)
	}
	for i := range first.Probs {
		if first.Probs[i] != second.Probs[i] {
			t.Fatalf("prob %d differs bitwise: %v vs %v", i, first.Probs[i], second.Probs[i])
		}
	}
}

// TestCacheDiscriminates: the content address must separate threat
// models and image contents.
func TestCacheDiscriminates(t *testing.T) {
	s := cacheServer(t, Options{})
	imgs := testImages(2)

	if _, err := s.Predict(context.Background(), imgs[0], pipeline.TM1); err != nil {
		t.Fatal(err)
	}
	// Same image, different TM: must miss (TM2 adds acquisition + filter).
	if _, err := s.Predict(context.Background(), imgs[0], pipeline.TM2); err != nil {
		t.Fatal(err)
	}
	// Different image, same TM: must miss.
	if _, err := s.Predict(context.Background(), imgs[1], pipeline.TM1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Cache
	if st.Hits != 0 || st.Misses < 3 {
		t.Fatalf("hits %d misses %d, want 0 hits and >= 3 misses", st.Hits, st.Misses)
	}
}

// TestCacheHitMutationSafe: mutating a returned probability vector must
// not corrupt the cached copy.
func TestCacheHitMutationSafe(t *testing.T) {
	s := cacheServer(t, Options{})
	img := testImages(1)[0]
	first, err := s.Predict(context.Background(), img, pipeline.TM1)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Probs[0]
	first.Probs[0] = -1 // caller scribbles on its copy
	second, err := s.Predict(context.Background(), img, pipeline.TM1)
	if err != nil {
		t.Fatal(err)
	}
	if second.Probs[0] != want {
		t.Fatalf("cache entry corrupted by caller mutation: %v", second.Probs[0])
	}
}

// TestCacheLRUEviction: the size bound must evict least-recently-used
// entries.
func TestCacheLRUEviction(t *testing.T) {
	s := cacheServer(t, Options{CacheSize: 2})
	imgs := testImages(3)
	for _, img := range imgs {
		if _, err := s.Predict(context.Background(), img, pipeline.TM1); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats().Cache
	if st.Entries != 2 {
		t.Fatalf("entries %d, want 2 after inserting 3 with capacity 2", st.Entries)
	}
	// imgs[0] was evicted: a repeat must miss and re-enqueue.
	enqueued := s.Stats().Requests
	if _, err := s.Predict(context.Background(), imgs[0], pipeline.TM1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Requests; got != enqueued+1 {
		t.Fatalf("evicted entry did not re-enqueue: %d -> %d", enqueued, got)
	}
	// imgs[2] is still resident.
	hits := s.Stats().Cache.Hits
	if _, err := s.Predict(context.Background(), imgs[2], pipeline.TM1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Cache.Hits; got != hits+1 {
		t.Fatal("most-recent entry was evicted")
	}
}

// TestCacheDisabled: CacheSize < 0 must disable caching entirely.
func TestCacheDisabled(t *testing.T) {
	s := cacheServer(t, Options{CacheSize: -1})
	img := testImages(1)[0]
	for i := 0; i < 2; i++ {
		if _, err := s.Predict(context.Background(), img, pipeline.TM1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Requests != 2 {
		t.Fatalf("requests %d, want 2 (no caching)", s.Stats().Requests)
	}
	if st := s.Stats().Cache; st.Hits != 0 || st.Misses != 0 || st.Capacity != 0 {
		t.Fatalf("disabled cache has activity: %+v", st)
	}
}

// TestDefendCacheCloneOnHit: a cached Defend result must be cloned per
// caller — mutating one response must not leak into the next.
func TestDefendCacheCloneOnHit(t *testing.T) {
	s := cacheServer(t, Options{})
	img := testImages(1)[0]
	req := DefendRequest{Image: img, Spec: "median(r=1)", Predict: true}

	first, err := s.Defend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Defend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Cache.Hits == 0 {
		t.Fatal("repeat defend did not hit the cache")
	}
	if second.Prediction == nil || second.Prediction.Class != first.Prediction.Class {
		t.Fatalf("cached defend prediction differs: %+v vs %+v", first.Prediction, second.Prediction)
	}
	want := second.Filtered.Data()[0]
	second.Filtered.Data()[0] = -99
	third, err := s.Defend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Filtered.Data()[0] != want {
		t.Fatal("defend cache entry corrupted by caller mutation")
	}
}

// TestCacheHitServedWhileDraining: a hit costs no worker time, so it is
// answered even after BeginDrain — while an uncached request is refused.
func TestCacheHitServedWhileDraining(t *testing.T) {
	s := cacheServer(t, Options{})
	imgs := testImages(2)
	if _, err := s.Predict(context.Background(), imgs[0], pipeline.TM1); err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	if _, err := s.Predict(context.Background(), imgs[0], pipeline.TM1); err != nil {
		t.Fatalf("cached predict refused during drain: %v", err)
	}
	if _, err := s.Predict(context.Background(), imgs[1], pipeline.TM1); !errors.Is(err, ErrDraining) {
		t.Fatalf("uncached predict during drain got %v, want ErrDraining", err)
	}
}

// TestPredictBatchPartialHits: a batch must enqueue only its cache
// misses and still return positionally correct results.
func TestPredictBatchPartialHits(t *testing.T) {
	s := cacheServer(t, Options{})
	imgs := testImages(4)
	// Warm imgs[1] and imgs[3].
	for _, i := range []int{1, 3} {
		if _, err := s.Predict(context.Background(), imgs[i], pipeline.TM1); err != nil {
			t.Fatal(err)
		}
	}
	enqueued := s.Stats().Requests
	preds, err := s.Do(context.Background(), Request{Images: imgs, TM: pipeline.TM1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Requests - enqueued; got != 2 {
		t.Fatalf("batch enqueued %d images, want 2 (the misses)", got)
	}
	pipe := servePipeline(t)
	for i, p := range preds {
		direct := pipe.Probs(imgs[i], pipeline.TM1)
		for j := range direct {
			if p.Probs[j] != direct[j] {
				t.Fatalf("image %d prob %d differs from direct pipeline", i, j)
			}
		}
	}
}
