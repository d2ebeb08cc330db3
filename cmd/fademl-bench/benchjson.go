package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fademl "repro"
	"repro/internal/attacks"
	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchResult is one benchmark's measurement in the BENCH_*.json
// trajectory files (schema documented in PERFORMANCE.md).
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Precision labels the numeric lane a benchmark exercised
	// ("float64"/"float32"); empty for precision-agnostic benchmarks.
	Precision string             `json:"precision,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// benchPrecision maps precision-lane benchmarks to their label.
var benchPrecision = map[string]string{
	"matmul":       "float64",
	"matmul32":     "float32",
	"vggforward":   "float64",
	"vggforward32": "float32",
	"serve":        "float64",
	"serve_f32":    "float32",
}

// f32Variant maps a precision-aware float64 benchmark to its float32
// counterpart; expandPrecisions uses it to sweep lanes.
var f32Variant = map[string]string{
	"matmul":     "matmul32",
	"vggforward": "vggforward32",
	"serve":      "serve_f32",
}

// expandPrecisions rewrites a -bench-select list per the -precisions
// sweep: each precision-aware entry is emitted once per requested lane
// (its own name for float64, the f32Variant name for float32), keeping
// order and deduplicating. An empty sweep is the identity.
func expandPrecisions(names []string, precs []fademl.Precision) []string {
	if len(precs) == 0 {
		return names
	}
	var out []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range names {
		v, aware := f32Variant[n]
		if !aware {
			add(n)
			continue
		}
		for _, p := range precs {
			if p == fademl.PrecisionFloat32 {
				add(v)
			} else {
				add(n)
			}
		}
	}
	return out
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUs       int           `json:"cpus"`
	Workers    int           `json:"workers"`
	Profile    string        `json:"profile"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// writeBenchJSON runs the selected benchmarks (the figure regenerations
// and substrate micro-benchmarks PERFORMANCE.md tracks) via
// testing.Benchmark and writes the results to path. precisions is the
// -precisions sweep: a comma-separated lane list that expands every
// precision-aware benchmark in selected across those lanes.
func writeBenchJSON(path, selected, precisions string, p fademl.Profile, cacheDir string, workers int) error {
	var precs []fademl.Precision
	for _, s := range strings.Split(precisions, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		prec, err := fademl.ParsePrecision(s)
		if err != nil {
			return err
		}
		precs = append(precs, prec)
	}
	env, err := fademl.NewEnv(p, cacheDir, os.Stderr)
	if err != nil {
		return err
	}
	sc := fademl.PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	goal := attacks.Goal{Source: sc.Source, Target: sc.Target}
	sweep := fademl.SweepOptions{
		IncludeCurves:  true,
		CurveScenarios: []fademl.Scenario{fademl.PaperScenarios[0]},
	}

	// Each runner mirrors its bench_test.go counterpart; the optional
	// metric lands in the JSON "metrics" map via b.ReportMetric.
	runners := map[string]func(b *testing.B){
		"matmul": func(b *testing.B) {
			b.ReportAllocs()
			rng := mathx.NewRNG(2)
			x := tensor.RandN(rng, 128, 128)
			y := tensor.RandN(rng, 128, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(x, y)
			}
		},
		// matmul32 is the float32 fast-lane GEMM at the same shape as
		// matmul — the pair is the PR-7 ≥2× speedup gate.
		"matmul32": func(b *testing.B) {
			b.ReportAllocs()
			rng := mathx.NewRNG(2)
			x := tensor.RandN(rng, 128, 128).Float32()
			y := tensor.RandN(rng, 128, 128).Float32()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul32(x, y)
			}
		},
		"vggforward": func(b *testing.B) {
			b.ReportAllocs()
			img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Net.Probs(img)
			}
		},
		// vggforward32 is the same single-image forward on the float32
		// snapshot (fused conv+ReLU / dense+ReLU, SSE GEMM core).
		"vggforward32": func(b *testing.B) {
			b.ReportAllocs()
			n32, err := env.Net.ToFloat32()
			if err != nil {
				b.Fatal(err)
			}
			img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n32.Probs(img)
			}
		},
		"vgginputgrad": func(b *testing.B) {
			b.ReportAllocs()
			img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
			loss := nn.CrossEntropy{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Net.LossAndInputGrad(img, gtsrb.ClassSpeed60, loss)
			}
		},
		"onepixel": func(b *testing.B) {
			b.ReportAllocs()
			cls := attacks.NetClassifier{Net: env.Net}
			atk := &attacks.OnePixel{Pixels: 1, Population: 10, Generations: 5, Seed: 7}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := atk.Generate(context.Background(), cls, clean, goal); err != nil {
					b.Fatal(err)
				}
			}
		},
		// serve / serve_unbatched measure the micro-batching service under
		// concurrent clients on the full TM-II path; the occupancy metric
		// shows how much coalescing happened (1.0 = none possible). Both
		// disable the result cache — the workload repeats one image, and a
		// cache hit would bypass the batching path entirely.
		"serve": func(b *testing.B) {
			benchServe(b, env, clean, 16, -1, fademl.PrecisionFloat64)
		},
		"serve_unbatched": func(b *testing.B) {
			benchServe(b, env, clean, 1, -1, fademl.PrecisionFloat64)
		},
		// serve_cached measures the same workload with the content-addressed
		// cache on: after the first miss every request is a hit, so this is
		// the hit path's ns/op.
		"serve_cached": func(b *testing.B) {
			benchServe(b, env, clean, 16, 0, fademl.PrecisionFloat64)
		},
		// serve_f32 is the batched serving workload on the float32 lane.
		"serve_f32": func(b *testing.B) {
			benchServe(b, env, clean, 16, -1, fademl.PrecisionFloat32)
		},
		"fig7": func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := fademl.RunFig7(context.Background(), env, sweep)
				if err != nil {
					b.Fatal(err)
				}
				rate = res.NeutralizationRate()
			}
			b.ReportMetric(100*rate, "pct_neutralized")
		},
		"fig9": func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := fademl.RunFig9(context.Background(), env, sweep)
				if err != nil {
					b.Fatal(err)
				}
				rate = res.SurvivalRate()
			}
			b.ReportMetric(100*rate, "pct_survived")
		},
	}

	report := benchReport{
		Schema:    "fademl-bench/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Workers:   workers,
		Profile:   env.Profile.Name,
	}
	var names []string
	for _, name := range strings.Split(selected, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	for _, name := range expandPrecisions(names, precs) {
		if name == "precision_drift" {
			// The drift runner is a scenario, not a b.N loop: it compares
			// the two lanes on the clean class fixtures and enforces the
			// ≥99% top-1 agreement gate.
			fmt.Fprintln(os.Stderr, "benchmarking precision_drift...")
			r, err := precisionDriftResult(env)
			if err != nil {
				return err
			}
			report.Benchmarks = append(report.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "  precision_drift: top-1 agreement %.2f%%, max |Δprob| %.2e\n",
				r.Metrics["top1_agreement_pct"], r.Metrics["max_abs_dprob"])
			continue
		}
		if name == "overload" {
			// The tail-latency runner is a scenario, not a b.N loop: it
			// reports predict p99 unloaded vs. overloaded (bulk lane at 2×
			// capacity, one of two inference workers killed).
			fmt.Fprintln(os.Stderr, "benchmarking overload...")
			r := overloadBenchResult(env, clean)
			report.Benchmarks = append(report.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "  overload: p99 %.2fms unloaded → %.2fms overloaded (%.1fx), %d bulk sheds\n",
				r.Metrics["p99_unloaded_ms"], r.Metrics["p99_overloaded_ms"],
				r.Metrics["overload_ratio"], int(r.Metrics["bulk_shed"]))
			continue
		}
		if name == "serve_swap" {
			// The hot-swap runner is a scenario, not a b.N loop: standing
			// clients measure predict p99 while the default model version
			// is flipped under them; any client-visible failure is an
			// error, not a data point.
			fmt.Fprintln(os.Stderr, "benchmarking serve_swap...")
			r, err := serveSwapBenchResult(env, clean)
			if err != nil {
				return err
			}
			report.Benchmarks = append(report.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "  serve_swap: p99 %.2fms steady → %.2fms during %d swaps (%.2fx), 0 failures\n",
				r.Metrics["p99_steady_ms"], r.Metrics["p99_swap_ms"],
				int(r.Metrics["swaps"]), r.Metrics["swap_ratio"])
			continue
		}
		if name == "adaptive_gap" {
			// The blind-vs-adaptive runner is a scenario, not a b.N loop: it
			// sweeps one attack over a randomized deployed defense under the
			// blind / eot / bpda crafting modes and gates honest (adaptive)
			// fooling ≥ blind fooling.
			fmt.Fprintln(os.Stderr, "benchmarking adaptive_gap...")
			r, err := adaptiveGapBenchResult(env)
			if err != nil {
				return err
			}
			report.Benchmarks = append(report.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "  adaptive_gap: blind %.0f%% → eot %.0f%% / bpda %.0f%% fooling (gap %+.0f pts) on %s\n",
				100*r.Metrics["blind_rate"], 100*r.Metrics["eot_rate"], 100*r.Metrics["bpda_rate"],
				100*r.Metrics["best_gap"], benchAdaptiveFilter)
			continue
		}
		if name == "detect" {
			// The detection runner is a scenario, not a b.N loop: it gates
			// the detector's FGSM ROC AUC and the detect-then-correct route's
			// latency overhead against a plain server.
			fmt.Fprintln(os.Stderr, "benchmarking detect...")
			r, err := detectBenchResult(env, clean)
			if err != nil {
				return err
			}
			report.Benchmarks = append(report.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "  detect: p50 %.2fms plain → %.2fms detecting (%.2fx), BIM AUC %.3f, rate %.0f%% @ thr %.3f\n",
				r.Metrics["plain_p50_ms"], r.Metrics["detect_p50_ms"], r.Metrics["detect_ratio"],
				r.Metrics["auc"], 100*r.Metrics["detection_rate"], r.Metrics["threshold"])
			continue
		}
		if name == "filters" {
			// The filter micro-benchmarks emit one entry per registered
			// filter (per-image ns/op + batched speedup) instead of a
			// single testing.Benchmark run.
			fmt.Fprintln(os.Stderr, "benchmarking filters...")
			results := filterBenchResults()
			report.Benchmarks = append(report.Benchmarks, results...)
			for _, r := range results {
				fmt.Fprintf(os.Stderr, "  %s: %.0f ns/op serial, %.2fx batched\n",
					r.Name, r.NsPerOp, r.Metrics["batched_speedup"])
			}
			continue
		}
		fn, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown benchmark %q (have: matmul, matmul32, vggforward, vggforward32, vgginputgrad, onepixel, serve, serve_unbatched, serve_cached, serve_f32, serve_swap, overload, precision_drift, detect, adaptive_gap, fig7, fig9, filters)", name)
		}
		fmt.Fprintf(os.Stderr, "benchmarking %s...\n", name)
		r := testing.Benchmark(fn)
		res := benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Precision:   benchPrecision[name],
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "  %s: %d iter, %.0f ns/op, %d B/op, %d allocs/op\n",
			name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// filterBatchSize is the batch the filter micro-benchmarks time — the
// serving layer's default micro-batch.
const filterBatchSize = 16

// timeOp measures fn's wall time per call: one warmup, then enough
// repetitions to accumulate ~30ms of work.
func timeOp(fn func()) float64 {
	fn() // warmup (builds stencil tap tables etc.)
	start := time.Now()
	fn()
	once := time.Since(start)
	reps := 1
	if once > 0 {
		if r := int(30 * time.Millisecond / once); r > reps {
			reps = r
		}
	}
	if reps > 1000 {
		reps = 1000
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// filterBenchResults measures every registered filter (plus a
// representative chain) on 32×32 RGB images: serial per-image Apply
// ns/op, the 16-image ApplyBatch ns/op, and the batched speedup — the
// per-filter trajectory PERFORMANCE.md tracks for the Defense API v2.
func filterBenchResults() []benchResult {
	rng := mathx.NewRNG(7)
	batch := make([]*tensor.Tensor, filterBatchSize)
	for i := range batch {
		batch[i] = tensor.RandU(rng, 0, 1, 3, 32, 32)
	}
	specs := append(filters.Names(), "chain(median(r=1),histeq(bins=64))")
	var out []benchResult
	for _, spec := range specs {
		f, err := filters.Parse(spec)
		if err != nil {
			continue
		}
		serialNs := timeOp(func() { filters.SerialBatch(f, batch) })
		batchNs := timeOp(func() { f.ApplyBatch(batch) })
		res := benchResult{
			Name:       "filter_" + strings.ToLower(strings.SplitN(spec, "(", 2)[0]),
			Iterations: filterBatchSize,
			NsPerOp:    serialNs / filterBatchSize,
			Metrics: map[string]float64{
				"batch16_ns_per_op": batchNs,
				"batched_speedup":   serialNs / batchNs,
			},
		}
		out = append(out, res)
	}
	return out
}

// benchServe is the shared body of the serve* runners: 32 concurrent
// clients per CPU against one Server on the TM-II path — enough standing
// load to keep flush-on-full the dominant trigger. cacheSize follows the
// ServeOptions convention (0 default, -1 disabled); prec selects the
// numeric lane every client requests.
func benchServe(b *testing.B, env *fademl.Env, img *fademl.Tensor, maxBatch, cacheSize int, prec fademl.Precision) {
	b.ReportAllocs()
	acq := fademl.NewAcquisition(1.0, 1.0/255, true, 97)
	pipe := fademl.NewPipeline(env.Net, fademl.NewLAP(32), acq)
	// InteractiveLimit -1: the runner measures batching throughput with
	// 32 standing clients per CPU — under the default admission bound
	// (4×workers×MaxBatch) the unbatched variant would shed, not queue.
	s := fademl.NewServer(pipe, fademl.ServeOptions{
		MaxBatch: maxBatch, MaxWait: 2 * time.Millisecond,
		CacheSize: cacheSize, InteractiveLimit: -1,
	})
	defer s.Close()
	if prec == fademl.PrecisionFloat32 && !s.Float32Available() {
		b.Fatal("float32 lane unavailable")
	}
	ctx := context.Background()
	req := fademl.ServeRequest{Images: []*fademl.Tensor{img}, TM: fademl.TM2, Precision: prec}
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Do(ctx, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(st.MeanBatchOccupancy, "mean_batch_occupancy")
	b.ReportMetric(st.P99LatencyMs, "p99_latency_ms")
	if cacheSize >= 0 {
		b.ReportMetric(st.Cache.HitRate, "cache_hit_rate")
	}
}

// precisionDriftResult quantifies the float32 lane's numeric drift on
// the clean class fixtures: every canonical GTSRB sign scored on both
// lanes, reporting top-1 agreement and the worst per-class probability
// delta. The 99% top-1 agreement gate is PR 7's acceptance bar for the
// fast lane; falling below it is an error, not a data point.
func precisionDriftResult(env *fademl.Env) (benchResult, error) {
	n32, err := env.Net.ToFloat32()
	if err != nil {
		return benchResult{}, err
	}
	agree := 0
	var maxD float64
	start := time.Now()
	for class := 0; class < gtsrb.NumClasses; class++ {
		img := gtsrb.Canonical(class, env.Profile.Size)
		p64 := env.Net.Probs(img)
		p32 := n32.Probs(img)
		if mathx.ArgMax(p64) == mathx.ArgMax(p32) {
			agree++
		}
		for j := range p64 {
			if d := p64[j] - p32[j]; d > maxD {
				maxD = d
			} else if -d > maxD {
				maxD = -d
			}
		}
	}
	elapsed := time.Since(start)
	pct := 100 * float64(agree) / float64(gtsrb.NumClasses)
	if pct < 99 {
		return benchResult{}, fmt.Errorf("precision_drift: top-1 agreement %.2f%% is below the 99%% gate (%d/%d classes)",
			pct, agree, gtsrb.NumClasses)
	}
	return benchResult{
		Name:       "precision_drift",
		Iterations: gtsrb.NumClasses,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(gtsrb.NumClasses),
		Precision:  "float32",
		Metrics: map[string]float64{
			"top1_agreement_pct": pct,
			"max_abs_dprob":      maxD,
		},
	}, nil
}

// serveSwapBenchResult measures hot-swap survivability as a trajectory
// point: standing clients hammer the default model while the registry's
// two versions are activated back and forth (keep=false, so every flip
// retires and drains the loser). It reports interactive predict p99 in
// the steady phase vs. the swap phase; the PR-8 acceptance gate is zero
// client-visible failures and swap p99 ≤ 2× steady-state.
func serveSwapBenchResult(env *fademl.Env, img *fademl.Tensor) (benchResult, error) {
	dir, err := os.MkdirTemp("", "fademl-swapbench")
	if err != nil {
		return benchResult{}, err
	}
	defer os.RemoveAll(dir)
	reg, err := fademl.OpenRegistry(dir)
	if err != nil {
		return benchResult{}, err
	}
	arch := env.Profile.VGGArch()
	if _, err := reg.Save("bench", env.Net, arch, fademl.RegistrySaveOptions{Note: "steady version"}); err != nil {
		return benchResult{}, err
	}
	// v2 stands in for a retrained model: same topology, different
	// weights (a fresh init is enough — the runner measures latency, not
	// accuracy).
	alt, err := arch.Build()
	if err != nil {
		return benchResult{}, err
	}
	if _, err := reg.Save("bench", alt, arch, fademl.RegistrySaveOptions{Note: "swap-target version"}); err != nil {
		return benchResult{}, err
	}
	v1, err := reg.Load(fademl.ModelRef{Name: "bench", Version: "v1"})
	if err != nil {
		return benchResult{}, err
	}
	acq := fademl.NewAcquisition(1.0, 1.0/255, true, 97)
	s := fademl.NewServerFromModel(v1, fademl.NewLAP(32), acq, fademl.ServeOptions{
		Workers: 2, MaxBatch: 8, MaxWait: 500 * time.Microsecond,
		CacheSize: -1, InteractiveLimit: -1, Registry: reg,
	})
	defer s.Close()

	// Phases: 0 warm-up (discarded), 1 steady, 2 swapping, 3 done.
	var phase atomic.Int32
	var failed atomic.Uint64
	const clients = 4
	type sample struct {
		phase int32
		d     time.Duration
	}
	perClient := make([][]sample, clients)
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ph := phase.Load()
				if ph >= 3 {
					return
				}
				start := time.Now()
				if _, err := s.Predict(ctx, img, fademl.TM2); err != nil {
					failed.Add(1)
					continue
				}
				perClient[c] = append(perClient[c], sample{ph, time.Since(start)})
			}
		}()
	}

	time.Sleep(200 * time.Millisecond) // warm-up
	phase.Store(1)
	time.Sleep(time.Second) // steady window
	phase.Store(2)
	const swaps = 6
	for i := 0; i < swaps; i++ {
		target := "bench@v2"
		if i%2 == 1 {
			target = "bench@v1"
		}
		if _, err := s.Activate(target, false); err != nil {
			phase.Store(3)
			wg.Wait()
			return benchResult{}, fmt.Errorf("serve_swap: activate %s: %w", target, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	phase.Store(3)
	wg.Wait()

	var steady, swapping []time.Duration
	for _, samples := range perClient {
		for _, smp := range samples {
			switch smp.phase {
			case 1:
				steady = append(steady, smp.d)
			case 2:
				swapping = append(swapping, smp.d)
			}
		}
	}
	p99 := func(ds []time.Duration) time.Duration {
		if len(ds) == 0 {
			return 0
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)-1)*99/100]
	}
	steadyP99, swapP99 := p99(steady), p99(swapping)
	if failed.Load() > 0 {
		return benchResult{}, fmt.Errorf("serve_swap: %d client-visible failures during the run (the swap contract is zero)", failed.Load())
	}
	ratio := 0.0
	if steadyP99 > 0 {
		ratio = float64(swapP99) / float64(steadyP99)
	}
	return benchResult{
		Name:       "serve_swap",
		Iterations: len(steady) + len(swapping),
		NsPerOp:    float64(swapP99.Nanoseconds()),
		Metrics: map[string]float64{
			"p99_steady_ms":    float64(steadyP99.Nanoseconds()) / 1e6,
			"p99_swap_ms":      float64(swapP99.Nanoseconds()) / 1e6,
			"swap_ratio":       ratio,
			"swaps":            swaps,
			"requests_steady":  float64(len(steady)),
			"requests_swap":    float64(len(swapping)),
			"failed_requests":  float64(failed.Load()),
			"final_swap_count": float64(s.Stats().Swaps),
		},
	}, nil
}

// detectBenchResult measures detection-as-a-service as a trajectory
// point. Quality follows the feature-squeezing evaluation convention —
// clean negatives are the correctly-classified canonical signs,
// positives the successful (prediction-changing) BIM examples against
// them — and the detection-tuned jpeg+tv ensemble, calibrated to a 5%
// clean FPR, must separate them at ROC AUC ≥ 0.90. Latency: end-to-end
// predict p50 of one client against a plain server vs. the same
// deployment with the detect-then-correct route on — the PR-9 gate is
// detect-path p50 ≤ 2× plain. Falling below either gate is an error,
// not a data point.
func detectBenchResult(env *fademl.Env, img *fademl.Tensor) (benchResult, error) {
	var clean []*fademl.Tensor
	var classes []int
	for c := 0; c < gtsrb.NumClasses; c++ {
		sign := gtsrb.Canonical(c, env.Profile.Size)
		if mathx.ArgMax(env.Net.Probs(sign)) == c {
			clean = append(clean, sign)
			classes = append(classes, c)
		}
	}
	det, err := fademl.ParseDetector("detect(squeezers=(jpeg(q=30),tv(lambda=0.1,iters=10)))")
	if err != nil {
		return benchResult{}, err
	}
	thr, err := det.Calibrate(env.Net, clean, 0.05)
	if err != nil {
		return benchResult{}, err
	}

	// Discriminative power: untargeted BIM (a paper attack) against every
	// correctly-classified class; only examples that actually move the
	// prediction count as positives, scored on the unfiltered TM-I view
	// the detector guards.
	atk, err := fademl.ParseAttack("bim(eps=0.1,steps=10)")
	if err != nil {
		return benchResult{}, err
	}
	cls := fademl.WrapNetwork(env.Net)
	ctx := context.Background()
	var adv []*fademl.Tensor
	for i, c := range clean {
		out, err := atk.Generate(ctx, cls, c, fademl.Goal{Source: classes[i], Target: fademl.Untargeted})
		if err != nil {
			return benchResult{}, err
		}
		if mathx.ArgMax(env.Net.Probs(out.Adversarial)) != classes[i] {
			adv = append(adv, out.Adversarial)
		}
	}
	if len(adv) == 0 {
		return benchResult{}, errors.New("detect: BIM produced no successful examples to score")
	}
	scoreAll := func(imgs []*fademl.Tensor) []float64 {
		scores := det.ScoreBatch(env.Net, imgs)
		out := make([]float64, len(scores))
		for i, s := range scores {
			out[i] = s.Score
		}
		return out
	}
	cleanScores, advScores := scoreAll(clean), scoreAll(adv)
	auc := fademl.DetectionAUC(cleanScores, advScores)
	if auc < 0.9 {
		return benchResult{}, fmt.Errorf("detect: BIM ROC AUC %.3f is below the 0.90 gate", auc)
	}
	detected, cleanFlagged := 0, 0
	for _, s := range advScores {
		if s > thr {
			detected++
		}
	}
	for _, s := range cleanScores {
		if s > thr {
			cleanFlagged++
		}
	}

	// Latency: the same deployment twice — detector off, then on — one
	// serial client on the full TM-II path, cache disabled so every
	// request pays its route.
	acq := fademl.NewAcquisition(1.0, 1.0/255, true, 97)
	server := func(d *fademl.Detector) *fademl.Server {
		return fademl.NewServer(fademl.NewPipeline(env.Net, fademl.NewLAP(32), acq), fademl.ServeOptions{
			Workers: 2, MaxBatch: 8, MaxWait: 2 * time.Millisecond,
			CacheSize: -1, Detector: d,
		})
	}
	p50 := func(s *fademl.Server) (time.Duration, error) {
		defer s.Close()
		const samples = 60
		for i := 0; i < 5; i++ { // warm-up
			if _, err := s.Predict(ctx, img, fademl.TM2); err != nil {
				return 0, err
			}
		}
		ds := make([]time.Duration, samples)
		for i := range ds {
			start := time.Now()
			if _, err := s.Predict(ctx, img, fademl.TM2); err != nil {
				return 0, err
			}
			ds[i] = time.Since(start)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2], nil
	}
	plainP50, err := p50(server(nil))
	if err != nil {
		return benchResult{}, err
	}
	detectP50, err := p50(server(det))
	if err != nil {
		return benchResult{}, err
	}
	ratio := float64(detectP50) / float64(plainP50)
	if ratio > 2 {
		return benchResult{}, fmt.Errorf("detect: detect-path p50 %.2fms is %.2fx plain %.2fms (gate: ≤2x)",
			float64(detectP50.Nanoseconds())/1e6, ratio, float64(plainP50.Nanoseconds())/1e6)
	}
	return benchResult{
		Name:       "detect",
		Iterations: len(clean),
		NsPerOp:    float64(detectP50.Nanoseconds()),
		Metrics: map[string]float64{
			"plain_p50_ms":   float64(plainP50.Nanoseconds()) / 1e6,
			"detect_p50_ms":  float64(detectP50.Nanoseconds()) / 1e6,
			"detect_ratio":   ratio,
			"auc":            auc,
			"detection_rate": float64(detected) / float64(len(adv)),
			"clean_fpr":      float64(cleanFlagged) / float64(len(clean)),
			"threshold":      thr,
		},
	}, nil
}

// benchAdaptiveFilter is the randomized deployed defense the
// adaptive_gap scenario sweeps: random resize-and-pad, the spatially
// destructive member of the family (per-pixel perturbations lose their
// alignment), with an exact VJP so both eot and bpda crafting have an
// honest gradient path through it.
const benchAdaptiveFilter = "randresize(lo=0.7,hi=0.9,seed=7)"

// adaptiveGapBenchResult measures honest blind-vs-adaptive robustness as
// a trajectory point: one untargeted BIM swept through /v1/evaluate's
// adaptive axis (blind, eot, bpda) against a randomized deployed
// defense. The PR-10 acceptance gate is that the best adaptive mode
// fools at least as often as the blind attacker — if modelling the
// deployed chain ever *hurt* the attacker, the sweep's fooling-rate gaps
// (and any robustness claim derived from them) would be dishonest.
// Everything in the sweep is deterministic (pure-function filter
// randomness, fixed seeds), so the gate cannot flake.
func adaptiveGapBenchResult(env *fademl.Env) (benchResult, error) {
	deployed, err := fademl.ParseFilter(benchAdaptiveFilter)
	if err != nil {
		return benchResult{}, err
	}
	s := fademl.NewServer(fademl.NewPipeline(env.Net, deployed, nil), fademl.ServeOptions{
		Workers: 2, MaxBatch: 8, AttackWorkers: 2, CacheSize: -1,
	})
	defer s.Close()
	var cases []fademl.EvalCase
	for _, sc := range fademl.PaperScenarios[:3] {
		cases = append(cases, fademl.EvalCase{
			Source: sc.Source, Target: fademl.Untargeted,
			Image: sc.CleanImage(env.Profile.Size),
		})
	}
	start := time.Now()
	res, err := s.Evaluate(context.Background(), fademl.ServeEvaluateRequest{
		Specs:    []string{"bim(eps=0.12,alpha=0.02,steps=20)"},
		TMs:      []fademl.ThreatModel{fademl.TM3},
		Adaptive: []string{"blind", "eot(draws=8)", "bpda"},
		Cases:    cases,
		Detector: "none",
	})
	if err != nil {
		return benchResult{}, err
	}
	elapsed := time.Since(start)
	rates := map[string]float64{}
	for _, sm := range res.Summaries {
		rates[strings.SplitN(sm.Adaptive, "(", 2)[0]] = sm.FoolingRate
	}
	blind, eot, bpda := rates["blind"], rates["eot"], rates["bpda"]
	best := eot
	if bpda > best {
		best = bpda
	}
	if best < blind {
		return benchResult{}, fmt.Errorf(
			"adaptive_gap: best adaptive fooling %.0f%% fell below blind %.0f%% on %s (adaptive crafting must not lose to blind)",
			100*best, 100*blind, benchAdaptiveFilter)
	}
	if len(res.Gaps) == 0 {
		return benchResult{}, errors.New("adaptive_gap: sweep returned no blind-vs-adaptive gaps")
	}
	return benchResult{
		Name:       "adaptive_gap",
		Iterations: len(res.Cells),
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(len(res.Cells)),
		Metrics: map[string]float64{
			"blind_rate": blind,
			"eot_rate":   eot,
			"bpda_rate":  bpda,
			"best_gap":   best - blind,
			"eot_draws":  8,
			"cells":      float64(len(res.Cells)),
		},
	}, nil
}

// overloadBenchResult measures serving survivability as a trajectory
// point: interactive predict p99 alone, then with the bulk lane held at
// 2× its admission capacity by live crafting jobs and one of the two
// inference workers killed mid-run. The excess bulk load must shed.
func overloadBenchResult(env *fademl.Env, img *fademl.Tensor) benchResult {
	const bulkLimit = 2
	chaos := &fademl.ServeChaos{}
	acq := fademl.NewAcquisition(1.0, 1.0/255, true, 97)
	pipe := fademl.NewPipeline(env.Net, fademl.NewLAP(32), acq)
	s := fademl.NewServer(pipe, fademl.ServeOptions{
		Workers: 2, MaxBatch: 8, MaxWait: 500 * time.Microsecond,
		AttackWorkers: 2, BulkLimit: bulkLimit,
		CacheSize: -1, Chaos: chaos,
	})
	defer s.Close()
	ctx := context.Background()

	const samples = 40
	measure := func() time.Duration {
		ds := make([]time.Duration, samples)
		for i := range ds {
			start := time.Now()
			if _, err := s.Predict(ctx, img, fademl.TM2); err != nil {
				return -1
			}
			ds[i] = time.Since(start)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(samples-1)*99/100]
	}

	measure() // warm-up
	unloaded := measure()

	var stop atomic.Bool
	var shed, completed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 2*bulkLimit; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, err := s.Attack(ctx, fademl.ServeAttackRequest{
					Spec: "pgd(eps=0.05,steps=400)", Image: img, Source: 0,
				})
				if errors.Is(err, fademl.ErrServeOverloaded) {
					shed.Add(1)
					time.Sleep(time.Millisecond)
				} else {
					completed.Add(1)
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := s.Stats().Bulk; st.Depth >= bulkLimit && shed.Load() > 0 {
			break
		}
	}
	chaos.KillWorkers(1)
	loaded := measure()
	stop.Store(true)
	wg.Wait()

	return benchResult{
		Name:       "overload",
		Iterations: samples,
		NsPerOp:    float64(loaded.Nanoseconds()),
		Metrics: map[string]float64{
			"p99_unloaded_ms":   float64(unloaded.Nanoseconds()) / 1e6,
			"p99_overloaded_ms": float64(loaded.Nanoseconds()) / 1e6,
			"overload_ratio":    float64(loaded) / float64(unloaded),
			"bulk_shed":         float64(shed.Load()),
			"bulk_completed":    float64(completed.Load()),
		},
	}
}
