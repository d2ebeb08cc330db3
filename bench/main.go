// Command bench is the repo's one benchmark: six workloads — five over
// the real fademl-serve binary on loopback HTTP, one over core.Execute in
// a fresh child process — reporting five end-to-end metrics each, plus a
// traced "ladder" run that times every module's public functions from the
// outside. See README.md for the tables and BENCHMARK.json for the
// contract.
//
//	go run ./bench                                   every workload, then the ladder
//	go run ./bench -workload single_hot -seed 3      one workload, one result line
//	go run ./bench -workload single_hot -trace 1     its per-layer metrics
//	go run ./bench -ladder                           the full ladder alone
//	go run ./bench compare a.json vs b.json          paired comparison
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	benchDir = "bench"
	cacheDir = benchDir + "/.cache"
	outDir   = benchDir + "/out"
)

func main() {
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case craftChildArg:
			exitOn(craftChildMain(os.Args[2:]))
			return
		case "compare":
			worse, err := compareMain(os.Args[2:], os.Stdout)
			exitOn(err)
			if worse {
				os.Exit(1)
			}
			return
		}
	}
	name := flag.String("workload", "", "run one workload and print its result line (default: all six, then the ladder)")
	seed := flag.Uint64("seed", 1, "drives image jitter, request order and hot-set popularity")
	seconds := flag.Float64("seconds", 0, "measure window in seconds (0: each workload's own window)")
	trace := flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
	ladderOnly := flag.Bool("ladder", false, "run the full ladder alone")
	out := flag.String("out", filepath.Join(outDir, "result.json"), "where to write the result record")
	updateExpected := flag.Bool("update-expected", false, "recompute bench/expected.json (craft_grid outcomes for seed 1) and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		exitOn(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	b, err := prepare(!*ladderOnly && !*updateExpected)
	exitOn(err)
	// A killed benchmark must not leave a server behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.children.stopAll()
		os.Exit(130)
	}()

	rec := newRecord(*seed)
	rec.TrainFitS = b.trainFitS
	switch {
	case *updateExpected:
		exitOn(writeExpected(b))
		return
	case *ladderOnly:
		exitOn(b.climb(rec, *seed, 0))
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			exitOn(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := b.run(w, *seed, *seconds, *trace == 1)
		exitOn(err)
		rec.Workloads[w.name] = res
		line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
		if *trace == 1 {
			// The traced run: the workload's own [wl] metrics plus the
			// ladder, time-boxed to the rest of the window.
			exitOn(b.climb(rec, *seed, time.Duration(0.6**seconds*float64(time.Second))))
			line.Metrics, err = perLayerMetrics(res, rec.Ladder)
			exitOn(err)
		}
		exitOn(rec.write(*out))
		raw, err := json.Marshal(line)
		exitOn(err)
		fmt.Println(string(raw))
		if !line.Correct {
			os.Exit(1)
		}
		return
	default:
		for _, w := range workloads {
			res, err := b.run(w, *seed, *seconds, false)
			exitOn(err)
			rec.Workloads[w.name] = res
		}
		exitOn(b.climb(rec, *seed, 0))
	}
	exitOn(rec.write(*out))
	rec.print(os.Stdout)
	fmt.Printf("\nresult: %s\n", *out)
	if rec.failed() {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is a prepared benchmark: binaries built, weights cached and
// loaded.
type bench struct {
	serveBin  string
	sut       *sut
	trainFitS float64
	children  childSet
}

// prepare is the untimed set-up: build fademl-serve into bench/out and
// make sure the tiny-profile weights exist in bench/.cache (training once,
// about 16 s; thereafter a hash-verified load).
func prepare(needServer bool) (*bench, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, errors.New("run from the repository root (no go.mod here)")
	}
	for _, dir := range []string{cacheDir, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	b := &bench{serveBin: filepath.Join(outDir, "fademl-serve")}
	if needServer {
		build := exec.Command("go", "build", "-o", b.serveBin, "./cmd/fademl-serve")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("building fademl-serve: %w", err)
		}
	}
	var err error
	if b.sut, b.trainFitS, err = loadSUT(cacheDir, os.Stderr); err != nil {
		return nil, err
	}
	return b, nil
}

// climb runs the ladder into rec and writes trace.json.
func (b *bench) climb(rec *record, seed uint64, budget time.Duration) error {
	l, err := runLadder(b.sut, cacheDir, seed, budget, os.Stderr)
	if err != nil {
		return err
	}
	rec.Ladder = &ladderRecord{Metrics: l.metrics, Rounds: l.rounds, Cells: l.cells, SelfUs: map[string]float64{}}
	for name, ns := range selfTimes(l.rec.spans) {
		rec.Ladder.SelfUs[name] = ns / 1e3
	}
	return writeTrace(filepath.Join(outDir, "trace.json"), l.rec.spans)
}

// workloadResult is one workload's measured window.
type workloadResult struct {
	WindowS   float64 `json:"window_s"`
	Samples   int     `json:"samples"` // latency samples (operations)
	Items     int     `json:"items"`   // correct items completed
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// FailedShare is (transport errors + non-200 + shed + wrong answers)
	// ÷ attempted; the driver reads it from attempted/failed.
	FailedShare float64 `json:"failed_share"`
	// TailPercentile is the highest percentile these samples support with
	// at least ten beyond it, and TailMs its value.
	TailPercentile float64           `json:"tail_percentile"`
	TailMs         float64           `json:"tail_ms"`
	Metrics        map[string]metric `json:"metrics"`
	Layers         map[string]metric `json:"layers"`
}

func (r *workloadResult) finish(w *workload, latMs []float64, elapsed time.Duration, cpuSec, setupS float64) {
	ok := r.Attempted - r.Failed
	r.Items = ok * w.perRequest
	r.Samples = len(latMs)
	r.WindowS = elapsed.Seconds()
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	r.TailPercentile = highestPercentile(len(latMs))
	r.TailMs = percentile(latMs, r.TailPercentile)
	r.Metrics = map[string]metric{
		"setup_s":         {setupS, "s"},
		"items_per_s":     {float64(r.Items) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {percentile(latMs, 50), "ms"},
		"latency_p95_ms":  {percentile(latMs, 95), "ms"},
		"cpu_ms_per_item": {1e3 * cpuSec / float64(max(r.Items, 1)), "ms"},
	}
	r.Layers = map[string]metric{}
	for _, name := range wlMetricNames {
		r.Layers[name] = metric{0, unitOf(name)}
	}
	r.Layers["wl.client_p99_ms"] = metric{percentile(latMs, 99), "ms"}
}

// wlMetricNames are the per-layer metrics collected per workload from
// outside the process ([wl] in the README), as opposed to the ladder's.
// serve.* read 0 on craft_grid and craft.* read 0 on the HTTP workloads.
var wlMetricNames = []string{
	"wl.client_p99_ms", "wl.peak_rss_mb",
	"serve.batch_occupancy", "serve.cache_hit_rate", "serve.shed_count", "serve.request_bytes",
	"craft.queries_total", "craft.attacker_hits", "craft.neutralized", "craft.survived", "craft.truncated", "craft.alloc_mb_per_cell",
}

// run measures one workload. A traced run starts its child once and
// spends 40 % of the window on the workload (the ladder gets the rest).
func (b *bench) run(w *workload, seed uint64, seconds float64, traced bool) (*workloadResult, error) {
	window := w.window
	if seconds > 0 {
		window = time.Duration(seconds * float64(time.Second))
	}
	starts := setupRepeats
	if traced {
		window, starts = window*2/5, 1
	}
	fmt.Fprintf(os.Stderr, "%s: %d start(s), %v warm-up, %v window\n", w.name, starts, warmUp, window)
	if w.route == "" {
		return b.runCraftGrid(w, seed, window, starts)
	}
	return b.runHTTP(w, seed, window, starts)
}

func (b *bench) runHTTP(w *workload, seed uint64, window time.Duration, starts int) (*workloadResult, error) {
	images := renderImages(seed, imagePool)
	encoded := make([][]byte, len(images))
	for i, img := range images {
		encoded[i] = encodeImage(img)
	}
	var srv *server
	var setups []float64
	for i := 0; i < starts; i++ {
		if srv != nil {
			b.children.stop(srv)
		}
		s, took, err := startServer(b.serveBin, cacheDir)
		if err != nil {
			return nil, err
		}
		b.children.add(s)
		srv = s
		setups = append(setups, took.Seconds())
	}
	defer b.children.stop(srv)
	load, err := drive(w, b.sut, srv.base, images, encoded, seed, warmUp, window, srv.cpuSeconds)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Attempted: load.attempted, Failed: load.failed}
	res.finish(w, load.latMs, load.elapsed, load.cpuSec, median(setups))

	batches := float64(load.after.Batches - load.before.Batches)
	if batches > 0 {
		imgs := load.after.MeanBatchOccupancy*float64(load.after.Batches) - load.before.MeanBatchOccupancy*float64(load.before.Batches)
		res.Layers["serve.batch_occupancy"] = metric{imgs / batches, "count"}
		// Recorded, but not part of the per-layer contract: a time that
		// does not exist on craft_grid (or, with no batch in the window, on
		// single_hot) cannot be reported for every workload. The server's
		// percentiles cover its latest 2048 batched requests.
		res.Layers["serve.server_p50_ms"] = metric{load.after.P50LatencyMs, "ms"}
		res.Layers["serve.server_p99_ms"] = metric{load.after.P99LatencyMs, "ms"}
		res.Layers["serve.http_overhead_ms"] = metric{percentile(load.latMs, 50) - load.after.P50LatencyMs, "ms"}
	}
	hits := float64(load.after.Cache.Hits - load.before.Cache.Hits)
	if lookups := hits + float64(load.after.Cache.Misses-load.before.Cache.Misses); lookups > 0 {
		res.Layers["serve.cache_hit_rate"] = metric{hits / lookups, "ratio"}
	}
	res.Layers["serve.shed_count"] = metric{float64(load.after.Interactive.Shed - load.before.Interactive.Shed), "count"}
	res.Layers["serve.request_bytes"] = metric{load.reqBytes, "B"}
	res.Layers["wl.peak_rss_mb"] = metric{srv.peakRSSMB(), "MB"}
	return res, nil
}

func (b *bench) runCraftGrid(w *workload, seed uint64, window time.Duration, starts int) (*workloadResult, error) {
	var child *craftChild
	var setups []float64
	for i := 0; i < starts; i++ {
		if child != nil {
			b.children.stop(child)
		}
		c, took, err := startCraftChild(cacheDir, seed, window.Seconds(), craftExactCells)
		if err != nil {
			return nil, err
		}
		b.children.add(c)
		child = c
		setups = append(setups, took.Seconds())
	}
	rep, err := child.run()
	b.children.stop(child)
	if err != nil {
		return nil, err
	}
	failed, err := b.checkCraft(seed, rep.Outcomes)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Attempted: len(rep.Outcomes), Failed: failed}
	lat := sortedCopy(rep.LatMs)
	res.finish(w, lat, time.Duration(rep.ElapsedS*float64(time.Second)), rep.CPUSec, median(setups))
	counts := countOutcomes(rep.Outcomes[:craftExactCells])
	for name, v := range map[string]int{
		"craft.queries_total": counts.Queries, "craft.attacker_hits": counts.Hits, "craft.neutralized": counts.Neutralized,
		"craft.survived": counts.Survived, "craft.truncated": counts.Truncated,
	} {
		res.Layers[name] = metric{float64(v), "count"}
	}
	res.Layers["craft.alloc_mb_per_cell"] = metric{rep.AllocMB / float64(len(rep.Outcomes)), "MB"}
	res.Layers["wl.peak_rss_mb"] = metric{rep.PeakRSSMB, "MB"}
	return res, nil
}

// checkCraft counts wrong cells: against bench/expected.json for seed 1,
// against the first lap for claims that wrapped around the grid, and — on
// every seed — every verifyEvery-th claim against a direct re-execution
// in this process (parallel ≡ serial, child ≡ parent).
func (b *bench) checkCraft(seed uint64, outs []craftOutcome) (int, error) {
	grid := craftGrid()
	var expected []craftOutcome
	if seed == 1 {
		raw, err := os.ReadFile(filepath.Join(benchDir, "expected.json"))
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(raw, &expected); err != nil || len(expected) != len(grid) {
			return 0, fmt.Errorf("bench/expected.json: want %d outcomes (%v)", len(grid), err)
		}
	}
	c, err := b.sut.newCrafter(seed)
	if err != nil {
		return 0, err
	}
	failed := 0
	for i, got := range outs {
		ok := true
		if expected != nil && got != expected[i%len(grid)] {
			ok = false
		}
		if i >= len(grid) && got != outs[i-len(grid)] {
			ok = false
		}
		if i%verifyEvery == 0 {
			want, err := c.execute(grid[i%len(grid)])
			if err != nil {
				return 0, err
			}
			ok = ok && got == want
		}
		if !ok {
			failed++
		}
	}
	return failed, nil
}

// writeExpected recomputes the pinned craft_grid outcomes for seed 1.
func writeExpected(b *bench) error {
	c, err := b.sut.newCrafter(1)
	if err != nil {
		return err
	}
	var outs []craftOutcome
	for _, cell := range craftGrid() {
		o, err := c.execute(cell)
		if err != nil {
			return err
		}
		outs = append(outs, o)
	}
	raw, err := json.Marshal(outs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, "expected.json"), append(raw, '\n'), 0o644)
}

// perLayerMetrics is the -trace 1 result: exactly the per-layer metrics
// BENCHMARK.json names, from the workload's [wl] metrics and the ladder.
func perLayerMetrics(res *workloadResult, l *ladderRecord) (map[string]metric, error) {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, m := range c.PerLayer {
		v, ok := l.Metrics[m.Name]
		if !ok {
			v, ok = res.Layers[m.Name]
		}
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names per-layer metric %q, which this run did not measure", m.Name)
		}
		out[m.Name] = metric{v.Value, m.Unit}
	}
	return out, nil
}

// stopper is a child process the bench must not leave behind.
type stopper interface{ stop() }

// childSet tracks running children so a signal can stop them.
type childSet struct {
	mu   sync.Mutex
	live []stopper
}

func (c *childSet) add(s stopper) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live = append(c.live, s)
}

func (c *childSet) stop(s stopper) {
	s.stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, l := range c.live {
		if l == s {
			c.live = append(c.live[:i], c.live[i+1:]...)
			return
		}
	}
}

func (c *childSet) stopAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.live {
		s.stop()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
