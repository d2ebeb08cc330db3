// Package front is the multi-replica front door of the serving layer: a
// consistent-hash router over N fademl-serve backends with health-driven
// ejection, bounded retries, and optional hedging.
//
// Routing is rendezvous (highest-random-weight) hashing of the request
// content over the healthy replica set: the same image keys to the same
// replica while the set is stable, so each replica's content-addressed
// cache sees a coherent shard of the keyspace, and when a replica is
// ejected only its share of the keyspace moves — the rest of the cache
// stays warm. A background prober ejects a replica after consecutive
// health-check failures and readmits it on the first success, so a
// killed-and-restarted backend rejoins automatically.
//
// Retries are deliberately narrow: a request is retried on the next
// replica only when the transport failed outright — connection refused,
// reset, or timeout with no HTTP response received — never on a 4xx/5xx,
// because a response means the backend made a decision (a 429 shed, a
// 400 input error) that retrying elsewhere would silently overrule.
// Retries back off exponentially with deterministic jitter. Hedging
// (issuing a duplicate request to the next-best replica when the first
// is slow) exists behind Options.Hedge and is off by default: it trades
// duplicate backend load for tail latency, a trade only the operator can
// make.
package front

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpbody"
	"repro/internal/mathx"
)

// maxBodyBytes bounds a buffered request body (needed for retries).
const maxBodyBytes = 64 << 20

// Options configures a Front. Backends is required; everything else has
// serving defaults.
type Options struct {
	// Backends are the replica base URLs, e.g. "http://10.0.0.1:8080".
	Backends []string
	// Client issues proxied requests and probes. nil selects a client
	// with sane connect timeouts and no overall request timeout (the
	// backends enforce their own route deadlines).
	Client *http.Client
	// ProbeInterval is the health-check cadence. <= 0 selects 1s.
	ProbeInterval time.Duration
	// ProbePath is the health endpoint probed on each backend.
	// Empty selects "/v1/healthz".
	ProbePath string
	// EjectAfter is the number of consecutive probe failures that ejects
	// a replica from routing. <= 0 selects 3.
	EjectAfter int
	// MaxRetries bounds additional attempts on other replicas after a
	// transport failure (0 keeps the default of 2; negative disables
	// retries).
	MaxRetries int
	// RetryBase is the first retry's backoff; attempt n waits
	// RetryBase << n, jittered ±50%. <= 0 selects 25ms.
	RetryBase time.Duration
	// Hedge, when positive, issues a duplicate of a safe (GET or
	// /v1/predict) request to the next-best replica if the first has not
	// answered within this long, taking whichever response arrives
	// first. 0 disables hedging (the default).
	Hedge time.Duration
	// Seed seeds the deterministic jitter RNG. 0 selects 1.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = defaultClient()
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbePath == "" {
		o.ProbePath = "/v1/healthz"
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func defaultClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: t}
}

// replica is one routed backend with health accounting.
type replica struct {
	url string

	healthy   atomic.Bool
	fails     atomic.Int32  // consecutive probe/transport failures
	ejections atomic.Uint64 // healthy→ejected transitions
	proxied   atomic.Uint64 // responses served through this replica
	errs      atomic.Uint64 // transport failures against this replica
}

// Front is the router. It implements http.Handler.
type Front struct {
	opts     Options
	replicas []*replica

	mu  sync.Mutex
	rng *mathx.RNG

	requests atomic.Uint64 // proxied requests
	retries  atomic.Uint64 // retry attempts issued
	hedges   atomic.Uint64 // hedge attempts issued
	failed   atomic.Uint64 // requests that exhausted every attempt

	done      chan struct{}
	closeOnce sync.Once
	probeWG   sync.WaitGroup
}

// New builds the front door and starts the health prober.
func New(opts Options) (*Front, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("front: no backends configured")
	}
	opts = opts.withDefaults()
	f := &Front{
		opts: opts,
		rng:  mathx.NewRNG(opts.Seed),
		done: make(chan struct{}),
	}
	for _, u := range opts.Backends {
		r := &replica{url: u}
		r.healthy.Store(true) // optimistic until the prober says otherwise
		f.replicas = append(f.replicas, r)
	}
	f.probeWG.Add(1)
	go f.probeLoop()
	return f, nil
}

// Close stops the health prober. In-flight proxied requests complete.
func (f *Front) Close() {
	f.closeOnce.Do(func() { close(f.done) })
	f.probeWG.Wait()
}

// jitter scales d by a deterministic factor in [0.5, 1.5).
func (f *Front) jitter(d time.Duration) time.Duration {
	f.mu.Lock()
	scale := 0.5 + f.rng.Float64()
	f.mu.Unlock()
	return time.Duration(float64(d) * scale)
}

// rendezvousOrder ranks replicas for a request key: healthy replicas
// first, then by highest-random-weight score, so the same key prefers
// the same replica while the healthy set is stable. The score is FNV-64a
// over url‖0‖key finished with mathx.Mix64: raw FNV's high bits barely
// depend on the key's last bytes, so one replica could win almost every
// key.
func (f *Front) rendezvousOrder(key []byte) []*replica {
	type scored struct {
		r     *replica
		score uint64
	}
	order := make([]scored, 0, len(f.replicas))
	for _, r := range f.replicas {
		h := fnv.New64a()
		h.Write([]byte(r.url))
		h.Write([]byte{0})
		h.Write(key)
		order = append(order, scored{r, mathx.Mix64(h.Sum64())})
	}
	sort.Slice(order, func(i, j int) bool {
		hi, hj := order[i].r.healthy.Load(), order[j].r.healthy.Load()
		if hi != hj {
			return hi
		}
		return order[i].score > order[j].score
	})
	out := make([]*replica, len(order))
	for i, s := range order {
		out[i] = s.r
	}
	return out
}

// hedgeable reports whether a request may be duplicated: reads, and the
// deterministic /v1/predict family whose responses are bit-identical
// across replicas.
func hedgeable(r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	switch r.URL.Path {
	case "/v1/predict", "/v1/predict_batch", "/v1/defend":
		return true
	}
	return false
}

// errAllReplicasFailed is returned (as a 502) when every routed attempt
// failed at the transport.
var errAllReplicasFailed = errors.New("front: no replica reachable")

// ServeHTTP proxies one request: buffer the body, rank replicas by
// rendezvous hash, then walk the ranking with bounded jittered retries
// on transport failure. A received response — any status — ends the
// walk and streams back verbatim.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	body, err := httpbody.Read(w, r, maxBodyBytes, nil)
	if err != nil {
		writeFrontError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
		return
	}
	key := routeKey(r, body)
	order := f.rendezvousOrder(key)

	if f.opts.Hedge > 0 && hedgeable(r) && len(order) > 1 {
		f.serveHedged(w, r, body, order)
		return
	}

	attempts := f.opts.MaxRetries + 1
	if attempts > len(order) {
		attempts = len(order)
	}
	for i := 0; i < attempts; i++ {
		rep := order[i]
		if i > 0 {
			f.retries.Add(1)
			select {
			case <-time.After(f.jitter(f.opts.RetryBase << (i - 1))):
			case <-r.Context().Done():
				writeFrontError(w, http.StatusServiceUnavailable, "canceled", r.Context().Err())
				return
			}
		}
		resp, err := f.forward(r.Context(), rep, r, body)
		if err != nil {
			// Transport failure: no response was received, so retrying
			// elsewhere cannot double-apply anything.
			rep.errs.Add(1)
			rep.fails.Add(1)
			continue
		}
		rep.proxied.Add(1)
		copyResponse(w, resp)
		return
	}
	f.failed.Add(1)
	writeFrontError(w, http.StatusBadGateway, "no_replica", errAllReplicasFailed)
}

// serveHedged races the best replica against the next-best after the
// hedge delay; the first response wins and the loser is cancelled.
func (f *Front) serveHedged(w http.ResponseWriter, r *http.Request, body []byte, order []*replica) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	type result struct {
		rep  *replica
		resp *http.Response
		err  error
	}
	results := make(chan result, 2)
	launch := func(rep *replica) {
		resp, err := f.forward(ctx, rep, r, body)
		results <- result{rep, resp, err}
	}
	go launch(order[0])
	launched, answered := 1, 0
	timer := time.NewTimer(f.opts.Hedge)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			if launched < 2 {
				f.hedges.Add(1)
				go launch(order[1])
				launched++
			}
		case res := <-results:
			answered++
			if res.err == nil {
				res.rep.proxied.Add(1)
				copyResponse(w, res.resp)
				cancel()
				// Drain the loser so its connection is reusable.
				if launched > answered {
					go func() {
						if late := <-results; late.err == nil {
							late.resp.Body.Close()
						}
					}()
				}
				return
			}
			res.rep.errs.Add(1)
			res.rep.fails.Add(1)
			if launched < 2 {
				// First attempt failed before the hedge fired: promote
				// the hedge immediately — it is now just a retry.
				f.retries.Add(1)
				go launch(order[1])
				launched++
			} else if answered == launched {
				f.failed.Add(1)
				writeFrontError(w, http.StatusBadGateway, "no_replica", errAllReplicasFailed)
				return
			}
		case <-r.Context().Done():
			writeFrontError(w, http.StatusServiceUnavailable, "canceled", r.Context().Err())
			return
		}
	}
}

// forward issues one attempt against one replica.
func (f *Front) forward(ctx context.Context, rep *replica, r *http.Request, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, rep.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return f.opts.Client.Do(req)
}

// routeKey is the rendezvous key: the request content for POSTs (cache
// affinity — the same image keys to the same replica) and the path for
// reads.
func routeKey(r *http.Request, body []byte) []byte {
	if len(body) > 0 {
		return body
	}
	return []byte(r.Method + " " + r.URL.Path)
}

// copyResponse streams a backend response to the client verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func writeFrontError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q,\n  \"code\": %q\n}\n", err.Error(), code)
}

// Handler returns the front door's HTTP surface: /metrics served
// locally, everything else proxied.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.WritePrometheus(w)
	})
	mux.Handle("/", f)
	return mux
}
