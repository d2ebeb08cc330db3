package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"
)

// The ladder is the traced run: one goroutine calls into each module's
// public functions from the outermost entry inward and records every call
// as a span. Spans are taken from outside the program — no flag, counter
// or environment variable is added to it — so rungs run back to back, not
// nested, and a layer's self time is
//
//	median(rung) − Σ median(its child rungs).
//
// End-to-end runs carry no tracing at all.

// span is one recorded call.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // the rung above
	Req    int    `json:"req"`              // ladder round
	Start  int64  `json:"start_ns"`         // since the ladder began
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out at exit.
type recorder struct {
	t0    time.Time
	spans []span
	// allocBytes collects, for the rungs that report it, the bytes
	// allocated process-wide during each call.
	allocBytes map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<15), allocBytes: map[string][]float64{}}
}

// call times one call and records it.
func (r *recorder) call(name, parent string, req int, f func()) {
	start := time.Since(r.t0)
	f()
	r.spans = append(r.spans, span{name, parent, req, int64(start), int64(time.Since(r.t0))})
}

// callAlloc is call plus a MemStats delta taken outside the span.
func (r *recorder) callAlloc(name, parent string, req int, f func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	r.call(name, parent, req, f)
	runtime.ReadMemStats(&ms)
	r.allocBytes[name] = append(r.allocBytes[name], float64(ms.TotalAlloc-before))
}

// rung is one per-image ladder step.
type rung struct {
	name, parent string
	per          int  // images one call covers (0 = 1)
	alloc        bool // also report allocation per call
	call         func(*ladderInput)
}

// setupRung is a set-up step timed a fixed number of times; run returns
// the duration of the part the rung is named after.
type setupRung struct {
	name string
	reps int
	run  func() (time.Duration, error)
}

func timed(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
}

// medians groups span durations by name and returns each name's median
// in nanoseconds.
func medians(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start))
	}
	out := make(map[string]float64, len(by))
	for name, ds := range by {
		out[name] = median(ds)
	}
	return out
}

// selfTimes applies the ladder's arithmetic: a rung's median minus the
// medians of the rungs that name it as parent.
func selfTimes(spans []span) map[string]float64 {
	med := medians(spans)
	self := make(map[string]float64, len(med))
	for name, m := range med {
		self[name] = m
	}
	parent := map[string]string{}
	for _, s := range spans {
		parent[s.Name] = s.Parent
	}
	for name, p := range parent {
		if _, ok := med[p]; ok {
			self[p] -= med[name]
		}
	}
	return self
}

// ladderRounds caps the per-image rounds of a full ladder.
const ladderRounds = 300

// metric is one named, measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitOf derives a ladder metric's unit from its name.
func unitOf(name string) string {
	if strings.HasSuffix(name, ".alloc_kb") {
		return "kB"
	}
	for _, u := range []struct{ mark, unit string }{{"_us", "us"}, {"_ms", "ms"}, {"_pct", "%"}, {"_mb", "MB"}, {"_bytes", "B"}, {"_rate", "ratio"}} {
		if strings.Contains(name, u.mark) {
			return u.unit
		}
	}
	return "count"
}

// perUnit is how many nanoseconds one unit of a timed metric holds.
func perUnit(name string) float64 {
	if unitOf(name) == "ms" {
		return 1e6
	}
	return 1e3
}

// ladder is a traced run in progress.
type ladder struct {
	s       *sut
	seed    uint64
	rec     *recorder
	metrics map[string]metric
	per     map[string]int // images one call of a rung covers
	rounds  int            // served-request rounds climbed
	cells   int            // crafted source images climbed
}

func newLadder(s *sut, seed uint64) *ladder {
	return &ladder{s: s, seed: seed, rec: newRecorder(), metrics: map[string]metric{}, per: map[string]int{}}
}

func (l *ladder) set(name string, v float64) { l.metrics[name] = metric{v, unitOf(name)} }

func (l *ladder) get(name string) float64 { return l.metrics[name].Value }

// runLadder climbs the ladder within about budget (0 = the full ladder):
// 35 % of it on the served-request rungs, 30 % on the crafted-cell rungs,
// then the set-up rungs, which take what they take (about 3 s).
func runLadder(s *sut, cacheDir string, seed uint64, budget time.Duration, progress io.Writer) (*ladder, error) {
	until := func(share float64) time.Time {
		if budget <= 0 {
			return time.Now().Add(time.Hour)
		}
		return time.Now().Add(time.Duration(share * float64(budget)))
	}
	l := newLadder(s, seed)
	fmt.Fprintln(progress, "ladder: served-request rungs")
	if err := l.climbServed(until(0.35)); err != nil {
		return nil, err
	}
	fmt.Fprintln(progress, "ladder: crafted-cell rungs")
	if err := l.climbCrafted(until(0.30)); err != nil {
		return nil, err
	}
	fmt.Fprintln(progress, "ladder: set-up rungs")
	if err := l.climbSetup(cacheDir); err != nil {
		return nil, err
	}
	l.finish()
	return l, nil
}

// climbServed runs the served-request rungs, one round per image, until
// stop (but at least three rounds).
func (l *ladder) climbServed(stop time.Time) error {
	rig, err := l.s.newLadderRig()
	if err != nil {
		return err
	}
	defer rig.close()
	replica := httptest.NewServer(rig.handler)
	defer replica.Close()
	front, closeFront, err := newFront(replica.URL)
	if err != nil {
		return err
	}
	defer closeFront()

	images := renderImages(l.seed, ladderRounds)
	encoded := make([][]byte, len(images))
	for i, img := range images {
		encoded[i] = encodeImage(img)
	}
	single, batch := workloadByName("single_unique"), workloadByName("batch16_f64")
	const hotCounter = 1
	hotBody := single.body(nil, encoded, request{images: []int{0}, counters: []uint64{hotCounter}, spec: -1})
	hotPix := withLiteral(images[0], hotCounter)
	// serveHTTP returns one in-memory request/recorder exchange, ready to
	// run once.
	serveHTTP := func(h http.Handler, route string, body []byte) func() {
		req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		return func() {
			h.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				panic(fmt.Sprintf("ladder: %s answered %d: %s", route, rr.Code, rr.Body.String()))
			}
		}
	}
	hit := func() { serveHTTP(rig.handler, single.route, hotBody)() }
	hit() // warm the hot image
	direct := &http.Client{}
	counter := func(stream, round, k int) uint64 {
		return counterBase(l.seed, phaseLadder, stream) + uint64(round*serveMaxBatch+k)
	}
	rungs := rig.rungs()
	for _, r := range rungs {
		l.per[r.name] = r.per
	}
	l.per["serve.http_batch16_us_per_img"] = serveMaxBatch
	rec := l.rec
	for i := 0; i < ladderRounds && (i < 3 || time.Now().Before(stop)); i++ {
		// Each server-facing rung gets its own unique variant of the image,
		// so an outer rung never warms the cache for an inner one.
		breq := request{spec: -1}
		var bpix [][]float64
		for k := 0; k < serveMaxBatch; k++ {
			idx := (i + k) % len(images)
			breq.images = append(breq.images, idx)
			breq.counters = append(breq.counters, counter(1, i, k))
			bpix = append(bpix, images[idx])
		}
		in := rig.input(images[i], withLiteral(images[i], counter(2, i, 0)), withLiteral(images[i], counter(3, i, 0)),
			hotPix, bpix, i%43, defendSpecs[i%len(defendSpecs)].spec)
		unique := request{images: []int{i}, counters: []uint64{counter(0, i, 0)}, spec: -1}
		rec.callAlloc("serve.http_unique_us", "", i, serveHTTP(rig.handler, single.route, single.body(nil, encoded, unique)))
		rec.callAlloc("serve.http_hit_us", "", i, serveHTTP(rig.handler, single.route, hotBody))
		rec.callAlloc("serve.http_batch16_us_per_img", "", i, serveHTTP(rig.handler, batch.route, batch.body(nil, encoded, breq)))
		for _, r := range rungs {
			if r.alloc {
				rec.callAlloc(r.name, r.parent, i, func() { r.call(in) })
			} else {
				rec.call(r.name, r.parent, i, func() { r.call(in) })
			}
		}
		rec.call("front.via_front_us", "", i, serveHTTP(front, single.route, hotBody))
		rec.call("front.direct_us", "", i, func() {
			resp, err := direct.Post(replica.URL+single.route, "application/json", bytes.NewReader(hotBody))
			if err != nil {
				panic(fmt.Sprintf("ladder: direct request to the replica: %v", err))
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
		l.rounds++
	}
	l.set("trace.overhead_pct", traceOverhead(hit))
	return nil
}

// climbCrafted runs the crafted-cell rungs: per (scenario, draw) source
// image, every attack blind and filter-aware against the deployed
// lap(np=32), until stop (but at least one source image). The exact query
// counts are those of the first source image.
func (l *ladder) climbCrafted(stop time.Time) error {
	c, err := l.s.newCrafter(l.seed)
	if err != nil {
		return err
	}
	rec := l.rec
	for n := 0; n < craftScenarios*craftReplicates && (n == 0 || time.Now().Before(stop)); n++ {
		for _, mode := range []string{"blind", "aware"} {
			for _, a := range craftAttacks {
				cell := craftCell{Attack: a, Aware: mode == "aware", Scenario: n % craftScenarios, Draw: n / craftScenarios}
				whole := a == ladderExecuteAttack && cell.Aware
				parent := ""
				if whole {
					parent = "core.execute_ms"
				}
				c.source(cell)
				var out *craftResult
				rec.call("attacks.generate_ms."+a+"."+mode, parent, n, func() { out, err = c.generate(cell) })
				if err != nil {
					return err
				}
				rec.call("analysis.compare_us", "core.execute_ms", n, func() { c.compare(cell, out) })
				if n == 0 {
					l.set("attacks.queries."+a+"."+mode, float64(out.Queries))
				}
				if whole {
					rec.callAlloc("core.execute_ms", "", n, func() { _, err = c.execute(cell) })
					if err != nil {
						return err
					}
				}
			}
		}
		l.cells++
	}
	return nil
}

// climbSetup times what a process pays before its first answer.
func (l *ladder) climbSetup(cacheDir string) error {
	for _, r := range l.s.setupRungs(cacheDir) {
		var ds []float64
		for i := 0; i < r.reps; i++ {
			d, err := r.run()
			if err != nil {
				return fmt.Errorf("ladder: %s: %w", r.name, err)
			}
			ds = append(ds, float64(d))
		}
		l.set(r.name, median(ds)/perUnit(r.name))
	}
	return nil
}

// finish turns the spans into metrics and derives the differences.
func (l *ladder) finish() {
	for name, ns := range medians(l.rec.spans) {
		l.set(name, ns/perUnit(name)/float64(max(l.per[name], 1)))
	}
	for name, bs := range l.rec.allocBytes {
		l.set(name+".alloc_kb", median(bs)/1024/float64(max(l.per[name], 1)))
	}
	l.set("serve.http_codec_us", l.get("serve.http_hit_us")-l.get("serve.predict_hit_us"))
	l.set("serve.queue_wait_us", l.get("serve.predict_unique_us")-l.get("pipeline.probs_tm2_us"))
	l.set("front.hop_us", l.get("front.via_front_us")-l.get("front.direct_us"))
	l.set("core.overhead_us", 1e3*(l.get("core.execute_ms")-l.get("attacks.generate_ms."+ladderExecuteAttack+".aware"))-l.get("analysis.compare_us"))
	delete(l.metrics, "front.via_front_us")
	delete(l.metrics, "front.direct_us")
}

// ladderExecuteAttack is the attack whose filter-aware cells the
// core.execute_ms rung re-runs whole, so that core.overhead_us =
// execute − generate − compare subtracts like from like.
const ladderExecuteAttack = "pgd"

// traceOverhead runs the serve.http_hit rung in alternating blocks with
// span recording on and off and returns the median difference of
// neighbouring blocks as a percentage of a bare block. Blocks are short, so
// that a garbage collection lands in a minority of them and the medians
// ignore it; pairing neighbours cancels drift.
func traceOverhead(hit func()) float64 {
	const blocks, perBlock = 300, 2
	scratch := newRecorder()
	var on, off []float64
	recorded := func() {
		start := time.Now()
		for k := 0; k < perBlock; k++ {
			scratch.call("serve.http_hit_us", "", k, hit)
		}
		on = append(on, float64(time.Since(start)))
	}
	bare := func() {
		start := time.Now()
		for k := 0; k < perBlock; k++ {
			hit()
		}
		off = append(off, float64(time.Since(start)))
	}
	for b := 0; b < blocks; b++ {
		if b%2 == 0 {
			recorded()
			bare()
		} else {
			bare()
			recorded()
		}
	}
	diff := make([]float64, blocks)
	for b := range diff {
		diff[b] = on[b] - off[b]
	}
	return 100 * median(diff) / median(off)
}

// writeTrace writes the spans to path as one JSON document.
func writeTrace(path string, spans []span) error {
	raw, err := json.Marshal(map[string]any{
		"note":  "spans recorded from outside the program; self time = median(rung) - sum of median(child rungs)",
		"spans": spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
