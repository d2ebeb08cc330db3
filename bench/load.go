package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix. Names are final: every later issue quotes
// them.
type workload struct {
	name, why  string
	route      string // "" for craft_grid, which is not HTTP
	perRequest int    // images per request (items per operation)
	hotSet     int    // > 0: draw from this many fixed images
	precision  string
	defend     bool
	window     time.Duration // measure window of a full run
}

var workloads = []*workload{
	{name: "single_unique", route: "/v1/predict", perRequest: 1, window: 15 * time.Second,
		why: "interactive /v1/predict on never-repeated images: decode, admission, 2 ms linger, acquisition, LAP, f64 forward, encode; cache useless, occupancy <= 2"},
	{name: "single_hot", route: "/v1/predict", perRequest: 1, hotSet: 64, window: 15 * time.Second,
		why: ">= 99 % content-cache hits: HTTP codec + SHA-256 + LRU only; control row for every compute optimisation, the row where codec overhead shows"},
	{name: "batch16_f64", route: "/v1/predict_batch", perRequest: 16, precision: "float64", window: 20 * time.Second,
		why: "16 unique images per body flush full micro-batches with no linger: DeliverGrouped + f64 ProbsBatch dominate; where a batched forward or GEMM change must show"},
	{name: "batch16_f32", route: "/v1/predict_batch", perRequest: 16, precision: "float32", window: 20 * time.Second,
		why: "the same traffic on the float32 lane (Net32, SSE kernel): keeps both lanes in every trajectory and exposes a gain on one lane that costs the other"},
	{name: "defend_mix", route: "/v1/defend", perRequest: 1, defend: true, window: 15 * time.Second,
		why: "/v1/defend rotating over eight filter specs: filters.Parse + Apply on the request goroutine dominate; no-change row for cache and batcher work"},
	{name: "craft_grid", perRequest: 1, window: 20 * time.Second,
		why: "core.Execute in a child process over 6 attacks x blind/aware x 2 filters x 5 scenarios x 3 replicates: the research path, which uses nn for gradients; HTTP does nothing here"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	loadClients  = 2   // closed loop, one keep-alive connection each
	imagePool    = 512 // seeded renders the unique workloads draw from
	verifyEvery  = 32  // unique workloads: every 32nd request is checked
	warmUp       = 2 * time.Second
	setupRepeats = 5 // child starts per run; setup_s is their median
)

// server is a fademl-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the child has been waited for
}

// startServer launches the real binary on a free loopback port and waits
// for the first 200 from /v1/healthz; it returns how long that took.
func startServer(bin, cacheDir string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, serveFlags(addr, cacheDir)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var logBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < 120*time.Second {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("fademl-serve exited before ready:\n%s", logBuf.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("fademl-serve not ready after 120 s:\n%s", logBuf.String())
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc accounting.
const clockTick = 100

// cpuSeconds reads utime+stime of the child from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", raw)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB reads VmHWM of the child.
func (s *server) peakRSSMB() float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// serverStats is the slice of GET /v1/stats the [wl] metrics read.
type serverStats struct {
	Requests           uint64  `json:"requests"`
	Batches            uint64  `json:"batches"`
	MeanBatchOccupancy float64 `json:"mean_batch_occupancy"`
	P50LatencyMs       float64 `json:"p50_latency_ms"`
	P99LatencyMs       float64 `json:"p99_latency_ms"`
	Interactive        struct {
		Shed uint64 `json:"shed"`
	} `json:"interactive"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
}

func fetchStats(base string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// answer is the part of a reply the output checks compare.
type answer struct {
	Class int     `json:"class"`
	Prob  float64 `json:"prob"`
}

// sample is one request kept for checking after the window.
type sample struct {
	req     request
	answers []answer
}

// clientResult is what one closed-loop client measured.
type clientResult struct {
	latMs     []float64
	attempted int // operations sent
	failed    int // transport error, non-200, malformed or (hot set) wrong answer
	bytes     int64
	samples   []sample
	last      time.Time
}

// hotTable holds the precomputed direct answer of every hot-set image.
type hotTable []answer

// runClient drives one closed loop until deadline. Every hot-set reply is
// checked on the spot against table; on the unique workloads every
// verifyEvery-th request is kept for checking after the window.
func runClient(w *workload, url string, encoded [][]byte, p *plan, table hotTable, deadline time.Time) clientResult {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	var res clientResult
	var buf []byte
	var reply bytes.Buffer
	var batch struct {
		Results []answer `json:"results"`
	}
	for time.Now().Before(deadline) {
		r := p.request()
		buf = w.body(buf, encoded, r)
		res.attempted++
		res.bytes += int64(len(buf))
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			res.failed++
			continue
		}
		reply.Reset()
		_, err = reply.ReadFrom(resp.Body)
		resp.Body.Close()
		res.last = time.Now()
		if err != nil || resp.StatusCode != http.StatusOK {
			res.failed++
			continue
		}
		res.latMs = append(res.latMs, float64(res.last.Sub(start))/float64(time.Millisecond))
		var answers []answer
		if w.perRequest > 1 {
			batch.Results = batch.Results[:0]
			err = json.Unmarshal(reply.Bytes(), &batch)
			answers = batch.Results
		} else {
			answers = make([]answer, 1)
			err = json.Unmarshal(reply.Bytes(), &answers[0])
		}
		if err != nil || len(answers) != w.perRequest {
			res.failed++
			continue
		}
		switch {
		case table != nil:
			if answers[0] != table[r.images[0]] {
				res.failed++
			}
		case res.attempted%verifyEvery == 0:
			res.samples = append(res.samples, sample{r, append([]answer(nil), answers...)})
		}
	}
	return res
}

// loadResult is one measured window of an HTTP workload.
type loadResult struct {
	latMs     []float64 // ascending
	attempted int       // operations
	failed    int       // operations
	elapsed   time.Duration
	cpuSec    float64
	reqBytes  float64
	before    serverStats
	after     serverStats
}

// drive warms the server up for warm, then measures one window with
// loadClients closed-loop clients, then checks the kept samples against
// direct calls. cpu reads the server's CPU seconds so far.
func drive(w *workload, s *sut, base string, images [][]float64, encoded [][]byte, seed uint64, warm, measure time.Duration, cpu func() (float64, error)) (*loadResult, error) {
	var table hotTable
	if w.hotSet > 0 {
		for i := 0; i < w.hotSet; i++ {
			table = append(table, s.predict(withLiteral(images[i], uint64(i)), false))
		}
		// The warm-up must touch every hot image so the window starts with
		// a full cache.
		var buf []byte
		for i := 0; i < w.hotSet; i++ {
			buf = w.body(buf, encoded, request{images: []int{i}, counters: []uint64{uint64(i)}, spec: -1})
			resp, err := http.Post(base+w.route, "application/json", bytes.NewReader(buf))
			if err != nil {
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	run := func(phase int, d time.Duration) []clientResult {
		out := make([]clientResult, loadClients)
		var wg sync.WaitGroup
		deadline := time.Now().Add(d)
		for c := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[c] = runClient(w, base+w.route, encoded, newPlan(w, seed, phase, c, len(images)), table, deadline)
			}()
		}
		wg.Wait()
		return out
	}
	run(phaseWarm, warm)

	res := &loadResult{}
	var err error
	if res.before, err = fetchStats(base); err != nil {
		return nil, err
	}
	cpu0, err := cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	clients := run(phaseMeasure, measure)
	end := start
	for _, c := range clients {
		if c.last.After(end) {
			end = c.last
		}
	}
	cpu1, err := cpu()
	if err != nil {
		return nil, err
	}
	if res.after, err = fetchStats(base); err != nil {
		return nil, err
	}
	res.elapsed = end.Sub(start)
	res.cpuSec = cpu1 - cpu0
	var sent int64
	for _, c := range clients {
		res.latMs = append(res.latMs, c.latMs...)
		res.attempted += c.attempted
		res.failed += c.failed
		sent += c.bytes
		for _, sm := range c.samples {
			ok, err := s.check(w, images, sm)
			if err != nil {
				return nil, err
			}
			if !ok {
				res.failed++
			}
		}
	}
	sort.Float64s(res.latMs)
	if res.attempted > 0 {
		res.reqBytes = float64(sent) / float64(res.attempted)
	}
	return res, nil
}

// check compares one kept sample with the direct call, exact float
// equality (ARCHITECTURE's served ≡ direct invariant).
func (s *sut) check(w *workload, images [][]float64, sm sample) (bool, error) {
	for i, got := range sm.answers {
		pix := withLiteral(images[sm.req.images[i]], sm.req.counters[i])
		var want answer
		if w.defend {
			var err error
			if want, err = s.defend(pix, defendSpecs[sm.req.spec].spec); err != nil {
				return false, err
			}
		} else {
			want = s.predict(pix, w.precision == "float32")
		}
		if got != want {
			return false, nil
		}
	}
	return true, nil
}
