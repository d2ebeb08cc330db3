package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/tensor"
)

// testStore builds a registry holding two versions of "m" with different
// weights (different init seeds), returning the registry and the loaded
// v1 entry.
func testStore(t testing.TB) (*registry.Registry, *registry.Model) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arch := registry.TinyCNNSpec(3, 16, 5)
	for _, seed := range []uint64{3, 7} {
		net, err := nn.TinyCNN(3, 16, 5, mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Save("m", net, arch, registry.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := reg.Load(registry.Ref{Name: "m", Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	return reg, v1
}

// versionTruth computes the direct (unserved) reference probabilities of
// every registry version of "m" for each image, keyed by "m@vN". The
// reference pipeline uses the same filter and acquisition the test
// servers deploy.
func versionTruth(t testing.TB, reg *registry.Registry, imgs []*tensor.Tensor, tm pipeline.ThreatModel) map[string][][]float64 {
	t.Helper()
	truth := make(map[string][][]float64)
	versions, err := reg.Versions("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		rm, err := reg.Load(registry.Ref{Name: "m", Version: v})
		if err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(rm.Net, filters.NewLAP(8), pipeline.DefaultAcquisition(11))
		probs := make([][]float64, len(imgs))
		for i, img := range imgs {
			probs[i] = p.Probs(img, tm)
		}
		truth["m@"+v] = probs
	}
	return truth
}

func equalProbs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCacheAcrossVersions pins the no-stale-version cache guarantee: the
// same image served on two model versions occupies two cache entries,
// and a re-hit on either version returns that version's bits, not the
// other's.
func TestCacheAcrossVersions(t *testing.T) {
	reg, v1 := testStore(t)
	s := NewFromModel(v1, filters.NewLAP(8), pipeline.DefaultAcquisition(11),
		Options{Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond, CacheSize: 64, Registry: reg})
	defer s.Close()
	if _, err := s.LoadModel("m@v2"); err != nil {
		t.Fatal(err)
	}

	imgs := testImages(3)
	truth := versionTruth(t, reg, imgs, pipeline.TM1)
	ctx := context.Background()

	// First pass: every (image, version) pair is a miss and must match
	// the direct per-version reference bits.
	for _, spec := range []string{"m@v1", "m@v2"} {
		for i, img := range imgs {
			pred, err := first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, Model: spec, TM: pipeline.TM1, Precision: pipeline.Float64}))
			if err != nil {
				t.Fatal(err)
			}
			if pred.Model != spec {
				t.Fatalf("pred.Model = %q, want %q", pred.Model, spec)
			}
			if !equalProbs(pred.Probs, truth[spec][i]) {
				t.Fatalf("first pass: %s image %d diverged from direct pipeline", spec, i)
			}
		}
	}
	st := s.cache.stats()
	if want := uint64(2 * len(imgs)); st.Misses != want || st.Hits != 0 {
		t.Fatalf("after first pass: hits=%d misses=%d, want 0/%d", st.Hits, st.Misses, want)
	}
	if st.Entries != 2*len(imgs) {
		t.Fatalf("cache entries = %d, want %d (one per image per version)", st.Entries, 2*len(imgs))
	}

	// Second pass: all hits, each bit-identical to its own version.
	for _, spec := range []string{"m@v1", "m@v2"} {
		for i, img := range imgs {
			pred, err := first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, Model: spec, TM: pipeline.TM1, Precision: pipeline.Float64}))
			if err != nil {
				t.Fatal(err)
			}
			if !equalProbs(pred.Probs, truth[spec][i]) {
				t.Fatalf("cache re-hit: %s image %d served another version's bits", spec, i)
			}
		}
	}
	st = s.cache.stats()
	if want := uint64(2 * len(imgs)); st.Hits != want {
		t.Fatalf("after second pass: hits=%d, want %d", st.Hits, want)
	}
}

// TestHotSwapUnderLoad soaks the swap state machine: client goroutines
// hammer the default model while the test flips the active version back
// and forth with keep=false (so every swap retires and drains the loser).
// The contract: zero failed requests, and every response bit-identical to
// the direct reference of the version it claims to be — which also
// proves no stale-version cache hit, since a wrong-version answer could
// not match its labeled version's bits. Swapping must also not cost
// latency: compute-path p99 during the flips stays within 2× steady.
func TestHotSwapUnderLoad(t *testing.T) {
	reg, v1 := testStore(t)
	s := NewFromModel(v1, filters.NewLAP(8), pipeline.DefaultAcquisition(11),
		Options{Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond, CacheSize: 256, Registry: reg})
	defer s.Close()

	imgs := testImages(6)
	truth := versionTruth(t, reg, imgs, pipeline.TM1)

	const clients = 4
	stop := make(chan struct{})
	var served [2]atomic.Uint64 // index 0: v1, 1: v2
	errs := make(chan error, clients+1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				img := imgs[i%len(imgs)]
				pred, err := s.Predict(ctx, img, pipeline.TM1)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				want, ok := truth[pred.Model]
				if !ok {
					errs <- fmt.Errorf("client %d: unknown serving model %q", c, pred.Model)
					return
				}
				if !equalProbs(pred.Probs, want[i%len(imgs)]) {
					errs <- fmt.Errorf("client %d: response labeled %s does not match that version's reference bits (stale-version hit?)", c, pred.Model)
					return
				}
				switch pred.Model {
				case "m@v1":
					served[0].Add(1)
				case "m@v2":
					served[1].Add(1)
				}
			}
		}()
	}

	// Latency probe: one more client sends never-repeated images, so each
	// request misses the cache and pays the full queue + forward path. Its
	// p99 while the default flips must stay within 2× its p99 over the
	// steady window before the first swap. Skipped under -short, where
	// the race detector distorts timing.
	var swapping atomic.Bool
	var steady, during []time.Duration
	if !testing.Short() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := imgs[0].Clone()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				probe.Data()[0] = float64(i%(1<<20)) / (1 << 20)
				inSwap, start := swapping.Load(), time.Now()
				if _, err := s.Predict(context.Background(), probe, pipeline.TM1); err != nil {
					errs <- fmt.Errorf("latency probe: %w", err)
					return
				}
				if d := time.Since(start); inSwap {
					during = append(during, d)
				} else {
					steady = append(steady, d)
				}
			}
		}()
		time.Sleep(300 * time.Millisecond)
		swapping.Store(true)
	}

	// Flip the default several times under load; keep=false retires and
	// fully drains the outgoing version each time.
	for swap := 0; swap < 6; swap++ {
		target := "m@v2"
		if swap%2 == 1 {
			target = "m@v1"
		}
		if _, err := s.Activate(target, false); err != nil {
			t.Fatalf("swap %d to %s: %v", swap, target, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if served[0].Load() == 0 || served[1].Load() == 0 {
		t.Fatalf("soak never exercised both versions: v1=%d v2=%d", served[0].Load(), served[1].Load())
	}
	if got := s.Stats().Swaps; got != 6 {
		t.Fatalf("Stats().Swaps = %d, want 6", got)
	}
	if !testing.Short() {
		steadyP99, swapP99 := percentile(steady, 0.99), percentile(during, 0.99)
		bound := 2 * steadyP99
		if floor := 100 * time.Millisecond; bound < floor { // the p99 of ~50 samples is their max; a busy host moves it 2×

			bound = floor
		}
		t.Logf("probe p99: steady %v over %d requests, swapping %v over %d (bound %v)",
			steadyP99, len(steady), swapP99, len(during), bound)
		if swapP99 > bound {
			t.Fatalf("predict p99 while swapping %v exceeds bound %v (steady %v)", swapP99, bound, steadyP99)
		}
	}
}

// TestModelAdminLifecycle covers the admin surface invariants: load is
// idempotent, the active model refuses to unload, a kept model stays
// selectable after losing the default slot, and the table listing puts
// the active entry first.
func TestModelAdminLifecycle(t *testing.T) {
	reg, v1 := testStore(t)
	s := NewFromModel(v1, filters.NewLAP(8), pipeline.DefaultAcquisition(11),
		Options{Workers: 1, MaxBatch: 2, MaxWait: time.Millisecond, Registry: reg})
	defer s.Close()

	if got := s.ActiveModel().String(); got != "m@v1" {
		t.Fatalf("active = %q, want m@v1", got)
	}
	id, err := s.LoadModel("m@v2")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.LoadModel("m@v2"); err != nil || again != id {
		t.Fatalf("second LoadModel = %v, %v; want idempotent %v", again, err, id)
	}
	// A bare name resolves to the registry's latest version.
	if id, err := s.LoadModel("m"); err != nil || id.String() != "m@v2" {
		t.Fatalf("LoadModel(m) = %v, %v; want m@v2", id, err)
	}
	if err := s.UnloadModel("m@v1"); err == nil {
		t.Fatal("unloading the active model must fail")
	}

	// keep=true: v1 loses the default slot but stays loaded and pinnable.
	if _, err := s.Activate("m@v2", true); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveModel().String(); got != "m@v2" {
		t.Fatalf("active after swap = %q, want m@v2", got)
	}
	pred, err := first(s.Do(context.Background(), Request{Images: []*tensor.Tensor{testImages(1)[0]}, Model: "m@v1", TM: pipeline.TM1, Precision: pipeline.Float64}))
	if err != nil || pred.Model != "m@v1" {
		t.Fatalf("pinned predict on kept model = %q, %v", pred.Model, err)
	}
	models := s.Models()
	if len(models) != 2 || !models[0].Active || models[0].Model != "m@v2" {
		t.Fatalf("Models() = %+v, want active m@v2 first of 2", models)
	}

	// Now v1 is inactive and unloads cleanly; predicting on it afterwards
	// is a clear client error.
	if err := s.UnloadModel("m@v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := first(s.Do(context.Background(), Request{Images: []*tensor.Tensor{testImages(1)[0]}, Model: "m@v1", TM: pipeline.TM1, Precision: pipeline.Float64})); err == nil {
		t.Fatal("predicting on an unloaded model must fail")
	}
}
