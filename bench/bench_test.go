package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentilePicker(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {95, 95}, {99.5, 99.5}, {100, 100}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(0..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// The highest percentile quoted must keep at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {360, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		got := highestPercentile(c.n)
		if got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 && samplesBeyond(c.n, got) < minBeyond {
			t.Errorf("highestPercentile(%d) = %v leaves %d samples beyond", c.n, got, samplesBeyond(c.n, got))
		}
	}
	// p95 is the contract's tail: every workload must support it.
	if samplesBeyond(200, 95) != 10 || samplesBeyond(199, 95) != 9 {
		t.Errorf("samplesBeyond(200|199, 95) = %d, %d", samplesBeyond(200, 95), samplesBeyond(199, 95))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func testImages(n int) ([][]float64, [][]byte) {
	images := renderImages(1, n)
	encoded := make([][]byte, n)
	for i, img := range images {
		encoded[i] = encodeImage(img)
	}
	return images, encoded
}

func TestUniquePayload(t *testing.T) {
	images, encoded := testImages(64)
	for _, w := range workloads {
		if w.route == "" {
			continue
		}
		seen := map[float64]bool{}  // a run starts a fresh server per workload
		lengths := map[[2]int]int{} // (first image, spec) -> body length
		for _, phase := range []int{phaseWarm, phaseMeasure} {
			for client := 0; client < loadClients; client++ {
				p := newPlan(w, 7, phase, client, len(images))
				var buf []byte
				for n := 0; n < 40; n++ {
					r := p.request()
					buf = w.body(buf, encoded, r)
					if !json.Valid(buf) {
						t.Fatalf("%s: request %d is not valid JSON", w.name, n)
					}
					// Patching the literal must not move a byte: bodies that
					// differ only in their counters have one length.
					if w.perRequest == 1 {
						key := [2]int{r.images[0], r.spec}
						if l, ok := lengths[key]; ok && l != len(buf) {
							t.Fatalf("%s: body length %d, earlier %d", w.name, len(buf), l)
						}
						lengths[key] = len(buf)
					}
					if w.hotSet > 0 {
						continue
					}
					for _, c := range r.counters {
						v := literalValue(c)
						if seen[v] {
							t.Fatalf("%s: counter %d repeats pixel value %v", w.name, c, v)
						}
						seen[v] = true
					}
				}
			}
		}
	}
	// The server must see exactly the image the checks recompute.
	w := workloadByName("single_unique")
	r := request{images: []int{3}, counters: []uint64{counterBase(999, phaseMeasure, 1) + 123456789}, spec: -1}
	var got struct {
		Pixels []float64
		Shape  []int
	}
	if err := json.Unmarshal(w.body(nil, encoded, r), &got); err != nil {
		t.Fatal(err)
	}
	want := withLiteral(images[3], r.counters[0])
	if len(got.Pixels) != len(want) || len(got.Shape) != 3 {
		t.Fatalf("decoded %d pixels, shape %v", len(got.Pixels), got.Shape)
	}
	for i := range want {
		if got.Pixels[i] != want[i] {
			t.Fatalf("pixel %d decodes to %v, want %v", i, got.Pixels[i], want[i])
		}
	}
	if counterBase(999, phaseLadder, maxClients-1)+streamBlock > counterMax {
		t.Error("counter layout overflows the literal's digits")
	}
}

// sequenceDigest hashes the first n requests of every client's measure
// stream: the same seed must give the same digest.
func sequenceDigest(w *workload, seed uint64, clients, images, n int) string {
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for c := 0; c < clients; c++ {
		p := newPlan(w, seed, phaseMeasure, c, images)
		for i := 0; i < n; i++ {
			r := p.request()
			for j := range r.images {
				put(uint64(r.images[j]))
				put(r.counters[j])
			}
			put(uint64(int64(r.spec)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// imagesDigest hashes rendered pixels, so a digest covers the inputs'
// content as well as their order.
func imagesDigest(imgs [][]float64) string {
	h := sha256.New()
	var word [8]byte
	for _, img := range imgs {
		for _, v := range img {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSequenceDigest(t *testing.T) {
	for _, w := range workloads {
		a, b := sequenceDigest(w, 1, loadClients, imagePool, 200), sequenceDigest(w, 1, loadClients, imagePool, 200)
		if a != b {
			t.Errorf("%s: same seed, different request sequence", w.name)
		}
		if c := sequenceDigest(w, 2, loadClients, imagePool, 200); c == a {
			t.Errorf("%s: seeds 1 and 2 give the same request sequence", w.name)
		}
	}
	if imagesDigest(renderImages(1, 4)) != imagesDigest(renderImages(1, 4)) {
		t.Error("same seed, different images")
	}
	if imagesDigest(renderImages(1, 4)) == imagesDigest(renderImages(2, 4)) {
		t.Error("seeds 1 and 2 render the same images")
	}
}

func TestSelfTimes(t *testing.T) {
	var spans []span
	add := func(name, parent string, durs ...int64) {
		for i, d := range durs {
			spans = append(spans, span{Name: name, Parent: parent, Req: i, Start: 0, End: d})
		}
	}
	add("http", "", 90, 100, 110)
	add("predict", "http", 60, 70, 80)
	add("deliver", "predict", 10, 20, 30)
	add("forward", "predict", 30, 40, 50)
	add("orphan", "absent", 5, 5, 5)
	self := selfTimes(spans)
	for name, want := range map[string]float64{"http": 30, "predict": 10, "deliver": 20, "forward": 40, "orphan": 5} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name    string
		a, b    []float64
		higher  bool
		bound   float64
		verdict string
	}{
		{"steady", []float64{100, 101, 99, 100}, []float64{101, 100, 100, 99}, false, 0.1, verdictWithin},
		{"slower latency", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, false, 0.1, verdictWorse},
		{"faster latency", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, 0.1, verdictBetter},
		{"lower throughput", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, true, 0.1, verdictWorse},
		{"higher throughput", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, true, 0.1, verdictBetter},
		{"noisy and overlapping", []float64{100, 140, 80, 120}, []float64{130, 90, 150, 125}, false, 0.1, verdictUnresolved},
		{"noisy but disjoint", []float64{100, 140, 80, 120}, []float64{200, 260, 180, 240}, false, 0.1, verdictWorse},
		{"single runs", []float64{100}, []float64{104}, false, 0.1, verdictWithin},
	} {
		if got := judge(c.a, c.b, c.higher, c.bound); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}

	mk := func(p50 float64, failedShare float64, degraded bool) *record {
		return &record{DegradedHost: degraded, Workloads: map[string]*workloadResult{"single_hot": {
			FailedShare: failedShare, Metrics: map[string]metric{"latency_p50_ms": {p50, "ms"}},
		}}}
	}
	c := &contract{EndToEnd: []boundedMetric{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15}}}
	c.Workloads = []contractWorkload{{Name: "single_hot"}}
	var out bytes.Buffer
	if compareRecords(c, []*record{mk(1, 0, false), mk(1.02, 0, false)}, []*record{mk(1.01, 0, false), mk(1.03, 0, false)}, &out) {
		t.Errorf("steady runs reported worse:\n%s", out.String())
	}
	out.Reset()
	if !compareRecords(c, []*record{mk(1, 0, false)}, []*record{mk(1.5, 0, false)}, &out) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50 %% slower median was not reported worse:\n%s", out.String())
	}
	out.Reset()
	if !compareRecords(c, []*record{mk(1, 0, false)}, []*record{mk(1, 0.01, false)}, &out) {
		t.Errorf("a rise of failed_share was not reported worse:\n%s", out.String())
	}
	out.Reset()
	if compareRecords(c, []*record{mk(1, 0, false)}, []*record{mk(1.5, 0, true)}, &out) || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a degraded host must force unresolved:\n%s", out.String())
	}
}

// TestContract keeps BENCHMARK.json and the code naming the same things.
func TestContract(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the bench %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(c.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the bench %d", len(c.EndToEnd), len(endToEndNames))
	}
	var res workloadResult
	res.finish(workloads[0], []float64{1}, time.Second, 1, 1)
	for i, name := range endToEndNames {
		m := c.EndToEnd[i]
		if m.Name != name || m.Unit != res.Metrics[name].Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the bench %q in %q", i, m, name, res.Metrics[name].Unit)
		}
	}
	seen := map[string]bool{}
	for _, m := range c.PerLayer {
		if seen[m.Name] {
			t.Errorf("per-layer metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if want := unitOf(m.Name); m.Unit != want {
			t.Errorf("per-layer metric %q: unit %q, the bench reports %q", m.Name, m.Unit, want)
		}
	}
	for _, name := range wlMetricNames {
		if !seen[name] {
			t.Errorf("BENCHMARK.json does not list the [wl] metric %q", name)
		}
	}
	if len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(c.PerLayer))
	}
}

func testSUT(t *testing.T) *sut {
	t.Helper()
	net, err := untrainedNet()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSUT(net)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeHTTPWorkloads drives every HTTP workload's request builder
// against the in-process handler for a fifth of a second, so that an API
// or wire change breaks a test, not the next benchmark run.
func TestSmokeHTTPWorkloads(t *testing.T) {
	s := testSUT(t)
	images, encoded := testImages(64)
	for _, w := range workloads {
		if w.route == "" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			srv := s.newServer()
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			noCPU := func() (float64, error) { return 0, nil }
			res, err := drive(w, s, ts.URL, images, encoded, 1, 50*time.Millisecond, 200*time.Millisecond, noCPU)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 || len(res.latMs) != res.attempted {
				t.Fatalf("attempted %d, failed %d, %d latencies", res.attempted, res.failed, len(res.latMs))
			}
			hits := res.after.Cache.Hits - res.before.Cache.Hits
			switch {
			case w.hotSet > 0 && res.after.Cache.Misses != res.before.Cache.Misses:
				t.Errorf("hot set missed the cache %d times in the window", res.after.Cache.Misses-res.before.Cache.Misses)
			case w.hotSet == 0 && hits != 0:
				t.Errorf("unique images hit the cache %d times", hits)
			}
			if w.perRequest == serveMaxBatch {
				batches := res.after.Batches - res.before.Batches
				if imgs := res.after.Requests - res.before.Requests; imgs != batches*serveMaxBatch {
					t.Errorf("%d images in %d batches: occupancy is not %d", imgs, batches, serveMaxBatch)
				}
			}
		})
	}
}

// TestSmokeWrongAnswer makes sure a wrong served answer is counted.
func TestSmokeWrongAnswer(t *testing.T) {
	s := testSUT(t)
	images, encoded := testImages(64)
	lying := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			w.Write([]byte("{}"))
			return
		}
		w.Write([]byte(`{"class": 1, "prob": 0.5}`))
	})
	ts := httptest.NewServer(lying)
	defer ts.Close()
	noCPU := func() (float64, error) { return 0, nil }
	for _, name := range []string{"single_hot", "single_unique"} {
		res, err := drive(workloadByName(name), s, ts.URL, images, encoded, 1, 0, 100*time.Millisecond, noCPU)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 {
			t.Errorf("%s: %d wrong answers went unnoticed", name, res.attempted)
		}
	}
}

// TestSmokeCraft runs one cell of every attack and mode on two workers
// and checks them against a serial re-execution.
func TestSmokeCraft(t *testing.T) {
	s := testSUT(t)
	grid := craftGrid()
	if len(grid) != 360 {
		t.Fatalf("craft grid has %d cells", len(grid))
	}
	kinds := map[string]bool{}
	for _, c := range grid[:12] {
		kinds[fmt.Sprint(c.Attack, c.Aware)] = true
	}
	if len(kinds) != 12 {
		t.Fatalf("the first 12 cells cover %d attack x mode kinds", len(kinds))
	}
	crafters := make([]*crafter, craftWorkers)
	for i := range crafters {
		var err error
		if crafters[i], err = s.newCrafter(1); err != nil {
			t.Fatal(err)
		}
	}
	rep := runCraft(crafters, 0, 12)
	if rep.Error != "" || len(rep.Outcomes) != 12 || len(rep.LatMs) != 12 {
		t.Fatalf("report: %d outcomes, error %q", len(rep.Outcomes), rep.Error)
	}
	serial, err := s.newCrafter(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range rep.Outcomes {
		want, err := serial.execute(grid[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("cell %d (%+v): parallel %+v, serial %+v", i, grid[i], got, want)
		}
	}
	if c := countOutcomes(rep.Outcomes); c.Queries == 0 {
		t.Error("no queries counted")
	}
}

// TestSmokeLadder climbs three served-request rounds.
func TestSmokeLadder(t *testing.T) {
	l := newLadder(testSUT(t), 1)
	if err := l.climbServed(time.Now()); err != nil {
		t.Fatal(err)
	}
	l.finish()
	if l.rounds != 3 {
		t.Fatalf("%d rounds", l.rounds)
	}
	for _, name := range []string{"serve.http_unique_us", "serve.http_hit_us", "serve.predict_unique_us", "pipeline.probs_tm2_us",
		"pipeline.deliver_tm2_us", "nn.forward_f64_us", "tensor.matmul_f32_us", "filters.apply_us.lar3", "front.hop_us",
		"serve.http_unique_us.alloc_kb", "trace.overhead_pct"} {
		if _, ok := l.metrics[name]; !ok {
			t.Errorf("ladder did not measure %s", name)
		}
	}
	if hit, unique := l.get("serve.http_hit_us"), l.get("serve.http_unique_us"); hit <= 0 || hit >= unique {
		t.Errorf("cache hit %v us, unique %v us", hit, unique)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeTrace(path, l.rec.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || !json.Valid(raw) {
		t.Fatalf("trace.json: %v", err)
	}
}
