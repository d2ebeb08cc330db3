package front

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mathx"
)

// stub is one fake backend: counts requests, answers with its id, and
// can be "killed" — a killed stub hijacks and closes every connection,
// which the client sees as a transport error (exactly what a crashed
// process produces), while the listener itself stays up so the same
// stub can recover later.
type stub struct {
	id    string
	hits  atomic.Uint64
	down  atomic.Bool
	state atomic.Int32 // healthz status override; 0 = 200
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.down.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("stub: response writer cannot hijack")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	if r.URL.Path == "/v1/healthz" {
		if st := s.state.Load(); st != 0 {
			w.WriteHeader(int(st))
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
		return
	}
	s.hits.Add(1)
	io.Copy(io.Discard, r.Body)
	fmt.Fprint(w, s.id)
}

// cluster spins up n stub replicas and a front over them.
func cluster(t *testing.T, n int, opts Options) (*Front, []*stub, []*httptest.Server) {
	t.Helper()
	stubs := make([]*stub, n)
	servers := make([]*httptest.Server, n)
	for i := range stubs {
		stubs[i] = &stub{id: fmt.Sprintf("replica-%d", i)}
		servers[i] = httptest.NewServer(stubs[i])
		t.Cleanup(servers[i].Close)
		opts.Backends = append(opts.Backends, servers[i].URL)
	}
	f, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f, stubs, servers
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w, w.Body.String()
}

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w, w.Body.String()
}

// TestAffinity: the rendezvous hash must route the same body to the same
// replica every time, and spread distinct bodies across the set.
func TestAffinity(t *testing.T) {
	f, _, _ := cluster(t, 3, Options{ProbeInterval: time.Hour})
	seen := map[string]bool{}
	for key := 0; key < 24; key++ {
		body := fmt.Sprintf(`{"pixels":[%d]}`, key)
		w, first := post(t, f, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		seen[first] = true
		for rep := 0; rep < 3; rep++ {
			if _, got := post(t, f, "/v1/predict", body); got != first {
				t.Fatalf("key %d moved from %s to %s with a stable replica set", key, first, got)
			}
		}
	}
	if len(seen) < 2 {
		t.Fatalf("24 distinct keys all routed to one replica: %v", seen)
	}
}

// TestRetryOnTransportFailure: a killed replica (connection closed, no
// response) must be retried on another replica invisibly to the client.
func TestRetryOnTransportFailure(t *testing.T) {
	f, stubs, _ := cluster(t, 3, Options{ProbeInterval: time.Hour, RetryBase: time.Millisecond})
	stubs[1].down.Store(true)
	// A retry happens only for a key the killed replica ranks first, so
	// ask the router for one rather than hope the 24 keys cover it.
	body := func(key int) string { return fmt.Sprintf(`{"pixels":[%d]}`, key) }
	killedFirst := 0
	for f.rendezvousOrder([]byte(body(killedFirst)))[0] != f.replicas[1] {
		killedFirst++
	}
	keys := []int{killedFirst}
	for key := 0; key < 24; key++ {
		keys = append(keys, key)
	}
	for _, key := range keys {
		w, got := post(t, f, "/v1/predict", body(key))
		if w.Code != http.StatusOK {
			t.Fatalf("key %d: status %d body %s", key, w.Code, w.Body.String())
		}
		if got == "replica-1" {
			t.Fatalf("key %d answered by the killed replica", key)
		}
	}
	if f.retries.Load() == 0 {
		t.Fatal("no retries recorded although a replica was killed")
	}
	if f.failed.Load() != 0 {
		t.Fatalf("%d requests failed outright", f.failed.Load())
	}
}

// TestRendezvousBalance: the router spreads request keys evenly. Over
// 50 seeded triples of loopback URLs, each of 3 replicas ranks first for
// 28–39 % of 3 000 keys. Raw FNV-64a scores, whose high bits barely move
// with a key's last bytes, let one replica take as much as 46 %.
func TestRendezvousBalance(t *testing.T) {
	keys := make([][]byte, 3000)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf(`{"pixels":[%d]}`, k))
	}
	rng := mathx.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		f := &Front{}
		ports := map[int]bool{}
		for len(ports) < 3 {
			port := 1024 + rng.IntN(64512)
			if ports[port] {
				continue
			}
			ports[port] = true
			r := &replica{url: fmt.Sprintf("http://127.0.0.1:%d", port)}
			r.healthy.Store(true)
			f.replicas = append(f.replicas, r)
		}
		wins := map[*replica]int{}
		for _, k := range keys {
			wins[f.rendezvousOrder(k)[0]]++
		}
		for _, r := range f.replicas {
			if share := float64(wins[r]) / float64(len(keys)); share < 0.28 || share > 0.39 {
				t.Errorf("trial %d: %s ranks first for %.1f %% of keys, want 28–39 %%", trial, r.url, 100*share)
			}
		}
	}
}

// TestNoRetryOnHTTPError: a received response — even a 5xx — must end
// the attempt walk: the backend made a decision (e.g. a 429 shed) that
// the front door must not overrule by re-dispatching.
func TestNoRetryOnHTTPError(t *testing.T) {
	var hits atomic.Uint64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			fmt.Fprint(w, "ok")
			return
		}
		hits.Add(1)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"shed","code":"overloaded"}`)
	}))
	defer backend.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer ok.Close()
	// Only the shedding backend is configured first; with one healthy
	// alternative present a retry would be observable as hits on it.
	f, err := New(Options{Backends: []string{backend.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, _ := post(t, f, "/v1/predict", `{"pixels":[1]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 passed through", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q not passed through", got)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("backend hit %d times for one request", n)
	}
	if f.retries.Load() != 0 {
		t.Fatalf("front retried a received 429")
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEjectionAndReadmission: consecutive probe failures must eject a
// replica from routing; one probe success must readmit it — the
// "crashed and restarted backend rejoins automatically" guarantee.
func TestEjectionAndReadmission(t *testing.T) {
	f, stubs, _ := cluster(t, 3, Options{
		ProbeInterval: 10 * time.Millisecond,
		EjectAfter:    2,
		RetryBase:     time.Millisecond,
	})
	stubs[2].down.Store(true)
	waitFor(t, 5*time.Second, "ejection of replica-2", func() bool {
		return !f.Snapshot()[2].Healthy
	})
	if f.Snapshot()[2].Ejections == 0 {
		t.Fatal("ejection not counted")
	}
	// While ejected, traffic flows to the survivors without retries:
	// an ejected replica sorts behind every healthy one.
	before := f.retries.Load()
	for key := 0; key < 16; key++ {
		if w, _ := post(t, f, "/v1/predict", fmt.Sprintf(`{"pixels":[%d]}`, key)); w.Code != http.StatusOK {
			t.Fatalf("key %d: status %d during ejection", key, w.Code)
		}
	}
	if got := f.retries.Load(); got != before {
		t.Fatalf("%d retries while the dead replica was ejected — it was still ranked first", got-before)
	}
	// Recovery: the same listener comes back; one good probe readmits.
	stubs[2].down.Store(false)
	waitFor(t, 5*time.Second, "readmission of replica-2", func() bool {
		return f.Snapshot()[2].Healthy
	})
	hitsBefore := stubs[2].hits.Load()
	for key := 0; key < 48; key++ {
		post(t, f, "/v1/predict", fmt.Sprintf(`{"pixels":[%d]}`, key))
	}
	if stubs[2].hits.Load() == hitsBefore {
		t.Fatal("readmitted replica received no traffic")
	}
}

// TestUnhealthyProbeStatusEjects: a 503 (draining) healthz must count as
// a probe failure — a draining replica leaves the rotation without a
// crash.
func TestUnhealthyProbeStatusEjects(t *testing.T) {
	f, stubs, _ := cluster(t, 2, Options{ProbeInterval: 10 * time.Millisecond, EjectAfter: 2})
	stubs[0].state.Store(http.StatusServiceUnavailable)
	waitFor(t, 5*time.Second, "ejection of draining replica", func() bool {
		return !f.Snapshot()[0].Healthy
	})
}

// TestHedging: with hedging armed, a slow replica's request is
// duplicated to the next-best after the hedge delay and the fast
// response wins.
func TestHedging(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			fmt.Fprint(w, "ok")
			return
		}
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, "slow")
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fast")
	}))
	defer fast.Close()
	f, err := New(Options{
		Backends:      []string{slow.URL, fast.URL},
		ProbeInterval: time.Hour,
		Hedge:         10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Find a key the rendezvous hash routes to the slow replica, so the
	// hedge is what saves the request.
	for key := 0; key < 64; key++ {
		body := fmt.Sprintf(`{"pixels":[%d]}`, key)
		if f.rendezvousOrder([]byte(body))[0].url != slow.URL {
			continue
		}
		start := time.Now()
		w, got := post(t, f, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		if got != "fast" {
			t.Fatalf("slow-routed request answered by %q, not the hedge", got)
		}
		if d := time.Since(start); d >= 250*time.Millisecond {
			t.Fatalf("hedged request took %v — the hedge did not rescue it", d)
		}
		if f.hedges.Load() == 0 {
			t.Fatal("no hedge recorded")
		}
		return
	}
	t.Fatal("no key routed to the slow replica in 64 tries")
}

// TestFrontMetrics: the front door's /metrics surface must expose
// replica health and router totals.
func TestFrontMetrics(t *testing.T) {
	f, stubs, _ := cluster(t, 2, Options{ProbeInterval: time.Hour, RetryBase: time.Millisecond})
	stubs[0].down.Store(true)
	for key := 0; key < 8; key++ {
		post(t, f, "/v1/predict", fmt.Sprintf(`{"pixels":[%d]}`, key))
	}
	w, body := get(t, f.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	for _, want := range []string{
		"fademl_front_requests_total 8",
		"fademl_front_replica_healthy{replica=",
		"fademl_front_retries_total",
		"fademl_front_replica_proxied_total",
		"fademl_front_replica_ejections_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
