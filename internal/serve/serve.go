// Package serve is the online inference layer of the reproduction: a
// concurrent prediction service with dynamic micro-batching in front of
// the paper's Fig. 2 pipeline.
//
// Architecture (model table of queue → micro-batch → clone pools):
//
//	clients ──► model table ──► coalescing queue ──► batcher ──► worker pool
//	             (per-request     (chan *pending,     (flush on    (one weight-
//	              name@version     one per model)      full or      sharing clone
//	              selection;                           linger)      per worker,
//	              atomic default)                                   one batched
//	                                                                forward per
//	                                                                batch)
//
// Single-image requests from concurrent clients are coalesced: each
// model's batcher drains its queue into a batch of up to MaxBatch
// requests, waiting at most MaxWait after the first request before
// flushing, and hands the batch to a worker that delivers every image
// under its threat model (pipeline.Deliver) and scores the whole batch
// through one nn.Network.ProbsBatch forward. Because batched rows are
// bit-identical to single-image calls and TM-II acquisition is a pure
// function of (seed, image), a served prediction is bit-identical to a
// direct pipeline.Probs call for the same image — batching is purely a
// throughput optimization.
//
// Models are versioned (internal/registry): a request may pin
// "name@version", and the default model hot-swaps atomically under live
// traffic — new worker clones are built and warmed before the switch,
// the old version drains its in-flight requests and retires, and
// nothing is shed or failed during the swap (model.go).
//
// Survivability layer (admission → cache → deadlines → chaos):
//
// In front of the queues sit two bounded admission lanes — interactive
// (Predict/Do/Defend/Detect) and bulk (Attack/Evaluate) — so a flood
// of crafting traffic can never starve prediction (admission.go); a
// content-addressed LRU whose keys carry the model identity answers
// repeat queries bit-identically without worker time (cache.go);
// per-route deadlines bound how long any request may hold resources;
// fault-injection hooks exercise the failure paths (chaos.go); and GET
// /metrics exposes the whole state in Prometheus text format
// (metrics.go). BeginDrain flips the server into a refuse-new/finish-
// in-flight drain ahead of Close.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/tensor"
)

// ErrServerClosed is returned by Predict/Do after Close.
var ErrServerClosed = errors.New("serve: server closed")

// Options configures a Server. The zero value selects sensible defaults.
type Options struct {
	// Workers is the per-model clone-pool size (goroutines running batched
	// inference, each on its own weight-sharing Network.Clone).
	// <= 0 selects runtime.NumCPU().
	Workers int
	// MaxBatch is the flush-on-full threshold: a batch is dispatched as
	// soon as this many requests have coalesced. <= 0 selects 16.
	// 1 disables micro-batching (request-at-a-time serving).
	MaxBatch int
	// MaxWait is the flush-on-linger bound: a batch is dispatched at most
	// this long after its first request arrived, full or not.
	// <= 0 selects 2ms.
	MaxWait time.Duration
	// DefaultTM is the threat model used when a request does not name one
	// (Predict with tm == 0). Zero selects TM2, the full capture + filter
	// path every benign input takes through the deployed system.
	DefaultTM pipeline.ThreatModel
	// Precision is the numeric lane used when a request does not name one
	// (Predict, and HTTP requests without a "precision" field). The zero
	// value is pipeline.Float64, the reference lane; pipeline.Float32
	// selects the fused float32 fast path. Per-request overrides go
	// through Request.Precision / the HTTP "precision" field; float32
	// requests are refused if the selected model has no float32 lowering.
	Precision pipeline.Precision
	// ClassName, when set, labels predictions (e.g. gtsrb.ClassName).
	ClassName func(int) string
	// Registry, when set, backs the model-management surface: LoadModel/
	// Activate (and POST /v1/models) resolve "name@version" references
	// against it and hot-swap the loaded result under live traffic. Nil
	// limits model selection to versions already in the table (the one the
	// server was constructed over).
	Registry *registry.Registry

	// Robustness endpoints (Attack/Evaluate, /v1/attack, /v1/evaluate).

	// AttackWorkers caps concurrent server-side crafting jobs, each on its
	// own pipeline clone. 0 selects 1; negative disables the endpoints.
	AttackWorkers int
	// AttackBudget is the hard per-crafting-run work cap. The zero value
	// selects MaxQueries 5000 — a server must never run an unbounded
	// client-supplied optimization.
	AttackBudget attacks.Budget
	// AttackTimeout is the per-crafting-run wall-clock cap (<= 0 selects
	// 30s).
	AttackTimeout time.Duration
	// Render produces the canonical class image at a given size for
	// requests that name a source class without supplying pixels
	// (e.g. gtsrb.Canonical). Nil requires explicit images.
	Render func(class, size int) *tensor.Tensor
	// EvalCases is the default scenario list for Evaluate requests that
	// carry none (e.g. the paper's five payloads).
	EvalCases []EvalCase

	// Detection (feature-squeezing discrepancy detector; /v1/detect and
	// the detect-then-correct serving mode).

	// Detector, when set, turns on detection-as-a-service: every external
	// prediction is scored against it and carries a verdict, flagged
	// inputs are re-routed through Correction before scoring
	// (detect-then-correct) while clean-pass traffic keeps the existing
	// fast lane bit-identically, and /v1/detect answers without an
	// explicit per-request spec. Server-internal measurement traffic (the
	// Evaluate sweep's views) is never detect-routed, so the paper
	// metrics are unaffected. Nil disables detection.
	Detector *detect.Detector
	// Correction is the heavier correction chain flagged inputs are
	// routed through: the flagged input's delivered tensor is filtered by
	// Correction and re-scored, and that corrected prediction is what the
	// client receives. Nil selects a chain of the detector's own
	// squeezers. Ignored without a Detector.
	Correction filters.Filter

	// Survivability (admission control, load shedding, per-route
	// deadlines, content-addressed caching, fault injection).

	// InteractiveLimit caps admitted-but-unfinished interactive requests
	// (Predict/Do/Defend/Detect — queued and in flight both count).
	// Excess load is shed with an OverloadError (HTTP 429 + Retry-After)
	// instead of queuing unboundedly. 0 selects 4 × Workers × MaxBatch;
	// negative disables the bound.
	InteractiveLimit int
	// BulkLimit caps admitted-but-unfinished bulk requests (Attack/
	// Evaluate), slot waiters included, so crafting backlog is refused
	// honestly instead of piling up behind AttackWorkers. 0 selects
	// 4 × AttackWorkers; negative disables the bound.
	BulkLimit int
	// PredictDeadline is the server-side SLO applied to each Predict/Do,
	// scaled by the number of micro-batches its cache misses span: the
	// request fails with context.DeadlineExceeded (HTTP 504) rather than
	// holding a worker past the lane's SLO. <= 0 disables;
	// cmd/fademl-serve defaults it to 500ms.
	PredictDeadline time.Duration
	// DefendDeadline is the per-route SLO for Defend (<= 0 disables;
	// cmd/fademl-serve defaults it to 2s).
	DefendDeadline time.Duration
	// EvaluateTimeout caps one whole Evaluate sweep (per-cell crafting is
	// separately capped by AttackTimeout). <= 0 disables; cmd/fademl-serve
	// defaults it to 2m.
	EvaluateTimeout time.Duration
	// CacheSize bounds the content-addressed prediction/defend cache in
	// entries. Responses are pure functions of the request content — the
	// model identity (name@version + weight hash) is part of every key,
	// so a hit is bit-identical to recomputation on that exact version and
	// a hot-swap can never serve a stale-version result. 0 selects 4096;
	// negative disables caching.
	CacheSize int
	// Chaos injects faults (delayed batches, killed workers, failed
	// batches) for the survivability harness. nil injects nothing.
	Chaos *Chaos
}

// withDefaults resolves zero fields to the documented defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.DefaultTM == 0 {
		o.DefaultTM = pipeline.TM2
	}
	if !o.Precision.Valid() {
		o.Precision = pipeline.Float64
	}
	if o.AttackWorkers == 0 {
		o.AttackWorkers = 1
	}
	if o.AttackBudget.Unlimited() {
		o.AttackBudget = Budget{MaxQueries: 5000}
	}
	if o.AttackTimeout <= 0 {
		o.AttackTimeout = 30 * time.Second
	}
	if o.InteractiveLimit == 0 {
		o.InteractiveLimit = 4 * o.Workers * o.MaxBatch
	}
	if o.BulkLimit == 0 {
		o.BulkLimit = 4 * o.AttackWorkers
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.Detector != nil && o.Correction == nil {
		o.Correction = filters.Chain(append([]filters.Filter(nil), o.Detector.Squeezers...))
	}
	return o
}

// Budget re-exports the attack work cap for Options literals.
type Budget = attacks.Budget

// Prediction is the per-request result: one model's view of one image
// under one threat model.
type Prediction struct {
	// Class is the argmax class index.
	Class int
	// Label is ClassName(Class) when Options.ClassName is set.
	Label string
	// Prob is the softmax probability of Class.
	Prob float64
	// Probs is the full probability vector (caller-owned).
	Probs []float64
	// TM is the threat model the image was delivered under.
	TM pipeline.ThreatModel
	// Precision is the numeric lane the forward pass ran on.
	Precision pipeline.Precision
	// Model is the "name@version" that answered — under a hot-swap,
	// clients see exactly which version served each response.
	Model string
	// Detection is the detector's verdict when the server runs in
	// detect-then-correct mode (Options.Detector); nil otherwise. When
	// Corrected is set, Class/Prob/Probs describe the corrected
	// (re-filtered) forward, not the raw one.
	Detection *Detection
}

// Stats is a snapshot of the server's serving counters.
type Stats struct {
	// Requests is the number of accepted prediction requests.
	Requests uint64 `json:"requests"`
	// Batches is the number of micro-batches dispatched to workers.
	Batches uint64 `json:"batches"`
	// MeanBatchOccupancy is Requests-completed / Batches — > 1 means
	// coalescing is happening.
	MeanBatchOccupancy float64 `json:"mean_batch_occupancy"`
	// P50LatencyMs / P99LatencyMs are enqueue-to-reply percentiles over a
	// sliding window of recent requests.
	P50LatencyMs float64 `json:"p50_latency_ms"`
	P99LatencyMs float64 `json:"p99_latency_ms"`
	// Workers, MaxBatch and MaxWaitMs echo the effective configuration.
	Workers   int     `json:"workers"`
	MaxBatch  int     `json:"max_batch"`
	MaxWaitMs float64 `json:"max_wait_ms"`
	// Model is the active default "name@version"; Swaps counts completed
	// hot-swaps; ModelsLoaded the table size.
	Model        string `json:"model"`
	Swaps        uint64 `json:"swaps"`
	ModelsLoaded int    `json:"models_loaded"`
	// Interactive and Bulk are the admission-lane snapshots.
	Interactive LaneStats `json:"interactive"`
	Bulk        LaneStats `json:"bulk"`
	// Cache is the content-addressed cache snapshot.
	Cache CacheStats `json:"cache"`
	// Draining reports BeginDrain-to-Close state.
	Draining bool `json:"draining"`
}

// latWindow is the sliding-window size for latency percentiles.
const latWindow = 2048

// pending is one enqueued request awaiting a worker.
type pending struct {
	img  *tensor.Tensor
	tm   pipeline.ThreatModel
	prec pipeline.Precision
	// ctx is the requesting client's context: a worker sheds the slot
	// without spending a forward on it once the client has given up.
	ctx  context.Context
	enq  time.Time
	done chan reply
	// detect marks external traffic subject to the detect-then-correct
	// route; the server's own measurement traffic leaves it false so the
	// Evaluate sweep's numbers never change under detection. verdict is
	// filled by the worker for detected slots.
	detect  bool
	verdict *Detection
}

type reply struct {
	pred Prediction
	err  error
}

// answer delivers the reply exactly once; extra calls (the worker panic
// path re-replying an already-answered slot) are dropped.
func (p *pending) answer(r reply) {
	select {
	case p.done <- r:
	default:
	}
}

// Server is a concurrent micro-batching inference service over a table
// of versioned models. Construct with New (one pipeline) or NewFromModel
// (a registry entry), serve via Predict/Do (or the HTTP
// Handler), manage versions with LoadModel/Activate/UnloadModel, stop
// with Close.
type Server struct {
	opts Options
	// filter and acq are the deployment's pre-processing stages, shared
	// by every model in the table (models differ in weights and topology;
	// the deployed defense is a property of the deployment).
	filter filters.Filter
	acq    *pipeline.Acquisition

	// models is the table of loaded versions keyed by "name@version";
	// active is the default model (atomic so the predict hot path never
	// takes a lock); swapMu serializes load/activate/unload.
	modelMu sync.Mutex
	models  map[string]*servedModel
	active  atomic.Pointer[servedModel]
	swapMu  sync.Mutex
	swaps   atomic.Uint64

	// attackers holds the idle crafting slots for the robustness
	// endpoints (nil when disabled).
	attackers chan *attacker
	done      chan struct{}
	// drained closes once every pool's batcher and workers have exited —
	// after that, every reply that will ever be sent is already sitting
	// in its (buffered) pending.done channel.
	drained chan struct{}

	// detSpec is the canonical spec of the configured detector ("" when
	// detection is off); it is part of every external prediction's cache
	// key so toggling detect-then-correct can never replay a cached
	// answer from the wrong routing mode. Guarded by detMu only around
	// CalibrateDetector (a pre-traffic operation); the hot path reads it
	// without locking.
	detSpec string

	// interactive and bulk are the admission lanes; cache the
	// content-addressed result cache (nil when disabled); metrics the
	// /metrics instruments; draining the BeginDrain flag.
	interactive *lane
	bulk        *lane
	cache       *contentCache
	metrics     *serverMetrics
	draining    atomic.Bool

	closeOnce   sync.Once
	drainedOnce sync.Once
	wg          sync.WaitGroup

	requests      atomic.Uint64
	batchCount    atomic.Uint64
	batchedImages atomic.Uint64

	latMu    sync.Mutex
	lat      [latWindow]float64 // ring of recent latencies in ms
	latIdx   int
	latCount int
}

// New builds and starts a server over the deployed pipeline p. Each
// worker runs on its own weight-sharing clone of p.Net, so the caller's
// pipeline remains free for direct use. The pipeline's model identity
// (pipeline.NewModel) becomes the table entry; an anonymous pipeline is
// registered as "<network name>@v0" with its weight hash computed on the
// spot. Panics on a nil pipeline (matching pipeline.New); bad option
// values are replaced by defaults.
func New(p *pipeline.Pipeline, opts Options) *Server {
	if p == nil {
		panic("serve: nil pipeline")
	}
	id := p.Model
	if id.IsZero() {
		id = pipeline.ModelID{Name: p.Net.Name(), Version: "v0"}
	}
	if id.WeightHash == "" {
		if h, err := p.Net.WeightHash(); err == nil {
			id.WeightHash = h
		}
	}
	// Build the float32 lane once from the trained weights; workers clone
	// the snapshot (sharing the converted weights, owning scratch). A
	// model with no float32 lowering leaves the lane disabled — float32
	// requests are then refused at validation, float64 serving unaffected.
	net32, f32err := p.Net.ToFloat32()
	return newServer(id, p.Net, net32, f32err, p.Filter, p.Acq, opts)
}

// newServer is the shared constructor behind New and NewFromModel.
func newServer(id pipeline.ModelID, net *nn.Network, net32 *nn.Net32, f32err error, filter filters.Filter, acq *pipeline.Acquisition, opts Options) *Server {
	if filter == nil {
		filter = filters.Identity{}
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		filter:  filter,
		acq:     acq,
		models:  make(map[string]*servedModel),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
		interactive: &lane{
			name: "interactive", limit: opts.InteractiveLimit, retryAfter: time.Second,
		},
		bulk: &lane{
			name: "bulk", limit: opts.BulkLimit, retryAfter: 10 * time.Second,
		},
		cache:   newContentCache(opts.CacheSize),
		metrics: newServerMetrics(),
	}
	if opts.Detector != nil {
		s.detSpec = opts.Detector.Name()
	}
	if opts.AttackWorkers > 0 {
		s.attackers = make(chan *attacker, opts.AttackWorkers)
		for i := 0; i < opts.AttackWorkers; i++ {
			s.attackers <- &attacker{}
		}
	}
	m := s.newServedModel(id, net, net32, f32err)
	s.models[m.key] = m
	s.active.Store(m)
	return s
}

// Close stops the server: queued requests and later Predict calls fail
// with ErrServerClosed; batches already handed to workers complete and
// reply normally (their waiting clients get their predictions, not an
// error). Close blocks until every model's batcher and workers exit and
// is safe to call more than once.
func (s *Server) Close() {
	s.draining.Store(true)
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	s.drainedOnce.Do(func() { close(s.drained) })
}

// Request is one prediction job: every image is scored under the same
// threat model, on the same numeric lane, by the same pinned model.
type Request struct {
	// Images are the CHW images to score (each must match the selected
	// model's input shape). Results are positional.
	Images []*tensor.Tensor
	// Model selects the model: "" runs the active default, "name@version"
	// pins an exact loaded version, a bare name the highest loaded version
	// of that name. The selection is pinned for the whole request, so it
	// keeps answering even if a hot-swap retires it mid-flight.
	Model string
	// TM is the threat model the images are delivered under; the zero
	// value selects Options.DefaultTM.
	TM pipeline.ThreatModel
	// Precision is the numeric lane, stated explicitly: the zero value is
	// pipeline.Float64, the reference path; pipeline.Float32 is the fused
	// fast path (refused with an error if the model has no float32
	// lowering). Lanes are cached under different content addresses, so a
	// float32 hit can never answer a float64 request.
	Precision pipeline.Precision
}

// Do scores a request through the micro-batching path. The images are
// enqueued individually so they coalesce with other clients' traffic (a
// request larger than MaxBatch simply spans several micro-batches); the
// first error wins. Every returned Prediction is bit-identical to a
// direct pipeline.Probs call for the same image and threat model. Safe
// for concurrent use from any number of goroutines — concurrency is what
// fills batches.
//
// Do is the interactive lane: a content-cache hit (same image bytes,
// threat model, lane and model version) is answered immediately —
// bit-identically — without touching a worker, even while the lane is
// shedding; only the images the cache cannot answer count against
// InteractiveLimit (beyond it the request is shed with an OverloadError
// instead of queued), and PredictDeadline, scaled by the number of
// micro-batches those images span, bounds how long the request may hold
// resources.
func (s *Server) Do(ctx context.Context, req Request) ([]Prediction, error) {
	m, err := s.resolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	defer m.release()
	return s.predict(ctx, m, req, true)
}

// Predict is the one-image shorthand for Do on the active model and the
// server's default lane (Options.Precision); tm == 0 selects
// Options.DefaultTM.
func (s *Server) Predict(ctx context.Context, img *tensor.Tensor, tm pipeline.ThreatModel) (Prediction, error) {
	return first(s.Do(ctx, Request{Images: []*tensor.Tensor{img}, TM: tm, Precision: s.opts.Precision}))
}

// first unwraps a one-image reply.
func first(preds []Prediction, err error) (Prediction, error) {
	if err != nil {
		return Prediction{}, err
	}
	return preds[0], nil
}

// predict is the one serving path: validate every image, answer what the
// content cache can, enqueue the misses on m's pool — all before any
// reply is awaited, so they coalesce into the same micro-batches — await
// them and fill the cache. The caller holds m's acquisition; req.Model
// is already resolved and ignored here.
//
// external is the only switch. External traffic (Do) passes interactive
// admission, the draining refusal and PredictDeadline, and is cached and
// routed under the configured detector spec (detect-then-correct).
// Internal traffic is the server's own measurement work — Defend's
// optional prediction, Detect's raw+squeezed variant set, the Evaluate
// sweep's views — whose caller already holds a lane slot and a route
// deadline and must be able to finish while a drain completes; it always
// runs on the reference float64 lane under the empty detector spec, so
// the sweep's numbers match the paper path regardless of the serving
// default and a detect-routed answer can never be replayed into it.
func (s *Server) predict(ctx context.Context, m *servedModel, req Request, external bool) ([]Prediction, error) {
	tm, prec, detSpec := req.TM, pipeline.Float64, ""
	if tm == 0 {
		tm = s.opts.DefaultTM
	}
	if external {
		prec, detSpec = req.Precision, s.detSpec
	}
	for _, img := range req.Images {
		if err := s.validate(m, img, tm, prec, external); err != nil {
			return nil, err
		}
	}
	type miss struct {
		idx int
		key cacheKey
		p   *pending
	}
	out := make([]Prediction, len(req.Images))
	var misses []miss
	for i, img := range req.Images {
		pred, key, ok := s.lookupPrediction(m, img, tm, prec, detSpec)
		if ok {
			out[i] = pred
		} else {
			misses = append(misses, miss{idx: i, key: key})
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	if external {
		var leave func()
		var err error
		deadline := s.opts.PredictDeadline * time.Duration(1+(len(misses)-1)/s.opts.MaxBatch)
		if ctx, leave, err = s.enter(ctx, s.interactive, len(misses), deadline); err != nil {
			return nil, err
		}
		defer leave()
	}
	now := time.Now()
	for i := range misses {
		p := &pending{img: req.Images[misses[i].idx], tm: tm, prec: prec, ctx: ctx, enq: now, done: make(chan reply, 1), detect: detSpec != ""}
		select {
		case m.pool.queue <- p:
			s.requests.Add(1)
			m.requests.Add(1)
		case <-s.done:
			return nil, ErrServerClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		misses[i].p = p
	}
	for _, ms := range misses {
		var r reply
		select {
		case r = <-ms.p.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.done:
			// The server is shutting down; the batch holding this request
			// may still be in flight on a worker. Wait for the pools to
			// drain (a bounded wait — workers finish their current batch
			// and exit), then take the reply if one was produced: a late
			// reply is a reply like any other.
			<-s.drained
			select {
			case r = <-ms.p.done:
			default:
				return nil, ErrServerClosed
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		s.storePrediction(ms.key, r.pred)
		out[ms.idx] = r.pred
	}
	return out, nil
}

// validate rejects malformed input at the API boundary so shape panics
// never reach a worker goroutine. Shape and float32 availability are
// properties of the selected model. external marks an image that came
// from a client: its pixels must be finite and in [0, 1]. The server's
// own measurement views skip that check — filter outputs such as
// normalize legitimately leave the unit range.
func (s *Server) validate(m *servedModel, img *tensor.Tensor, tm pipeline.ThreatModel, prec pipeline.Precision, external bool) error {
	if !tm.Valid() {
		return fmt.Errorf("serve: invalid threat model %d", int(tm))
	}
	if !prec.Valid() {
		return fmt.Errorf("serve: invalid precision %d", int(prec))
	}
	if prec == pipeline.Float32 && m.net32 == nil {
		return fmt.Errorf("serve: float32 lane unavailable on model %s: %v", m.key, m.f32err)
	}
	if img == nil {
		return errors.New("serve: nil image")
	}
	if got := img.Shape(); !slices.Equal(got, m.inShape) {
		return fmt.Errorf("serve: image shape %v, model %s wants %v", got, m.key, m.inShape)
	}
	if external {
		for i, v := range img.Data() {
			if !(v >= 0 && v <= 1) { // also catches NaN
				return fmt.Errorf("serve: pixel %d is %v, want a finite value in [0, 1]", i, v)
			}
		}
	}
	return nil
}

// DefaultPrecision returns the lane used when a request names none.
func (s *Server) DefaultPrecision() pipeline.Precision { return s.opts.Precision }

// Float32Available reports whether the float32 fast lane is serving on
// the active model (false when it has no float32 lowering).
func (s *Server) Float32Available() bool { return s.active.Load().net32 != nil }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	s.modelMu.Lock()
	loaded := len(s.models)
	s.modelMu.Unlock()
	st := Stats{
		Requests:     s.requests.Load(),
		Batches:      s.batchCount.Load(),
		Workers:      s.opts.Workers,
		MaxBatch:     s.opts.MaxBatch,
		MaxWaitMs:    float64(s.opts.MaxWait) / float64(time.Millisecond),
		Model:        s.active.Load().key,
		Swaps:        s.swaps.Load(),
		ModelsLoaded: loaded,
		Interactive:  s.interactive.stats(),
		Bulk:         s.bulk.stats(),
		Cache:        s.cache.stats(),
		Draining:     s.Draining(),
	}
	if st.Batches > 0 {
		st.MeanBatchOccupancy = float64(s.batchedImages.Load()) / float64(st.Batches)
	}
	s.latMu.Lock()
	n := s.latCount
	if n > latWindow {
		n = latWindow
	}
	window := append([]float64(nil), s.lat[:n]...)
	s.latMu.Unlock()
	if len(window) > 0 {
		st.P50LatencyMs = mathx.Percentile(window, 50)
		st.P99LatencyMs = mathx.Percentile(window, 99)
	}
	return st
}

// process scores one micro-batch on a worker's private pipeline: deliver
// every image under its own threat model, one batched network forward,
// one reply per request. A panic (impossible for validated input, but a
// server must not die with a stuck client) is converted into an error
// reply for every slot in the batch.
func (s *Server) process(m *servedModel, wp *pipeline.Pipeline, w32 *nn.Net32, batch []*pending) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.inferencePanics.Add(1)
			err := fmt.Errorf("serve: inference failed: %v", r)
			for _, p := range batch {
				p.answer(reply{err: err})
			}
		}
	}()
	// Fault injection (nil Chaos is free): a stalled batch models a slow
	// accelerator, an injected panic exercises the recover path above.
	if d := s.opts.Chaos.batchDelay(); d > 0 {
		time.Sleep(d)
	}
	if s.opts.Chaos.takeFail() {
		panic("chaos: injected batch failure")
	}
	// Shed slots whose client already gave up (canceled context, expired
	// deadline): under overload, spending a delivery + forward on a reply
	// nobody reads would starve the requests that are still live.
	live := batch[:0]
	for _, p := range batch {
		if p.ctx != nil && p.ctx.Err() != nil {
			p.answer(reply{err: p.ctx.Err()})
			continue
		}
		live = append(live, p)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	// Delivery is grouped per threat model so the filter stage runs as one
	// Filter.ApplyBatch per TM present in the micro-batch; results are
	// bit-identical to per-image Deliver calls.
	imgs := make([]*tensor.Tensor, len(batch))
	tms := make([]pipeline.ThreatModel, len(batch))
	for i, p := range batch {
		imgs[i], tms[i] = p.img, p.tm
	}
	delivered := wp.DeliverGrouped(imgs, tms)
	// Scoring splits by the requested lane. The common case — a batch
	// with no float32 requests — takes exactly the pre-precision path
	// (one ProbsBatch over the whole delivered batch, original order), so
	// float64 responses stay bit-identical to a server without the lane.
	var idx32 []int
	for i, p := range batch {
		if p.prec == pipeline.Float32 {
			idx32 = append(idx32, i)
		}
	}
	var rows [][]float64
	if len(idx32) == 0 {
		rows = wp.Net.ProbsBatch(delivered)
	} else {
		rows = make([][]float64, len(batch))
		var idx64 []int
		var g64, g32 []*tensor.Tensor
		for i, p := range batch {
			if p.prec == pipeline.Float32 {
				g32 = append(g32, delivered[i])
			} else {
				idx64 = append(idx64, i)
				g64 = append(g64, delivered[i])
			}
		}
		if len(g64) > 0 {
			for j, r := range wp.Net.ProbsBatch(g64) {
				rows[idx64[j]] = r
			}
		}
		for j, r := range w32.ProbsBatch(g32) {
			rows[idx32[j]] = r
		}
	}
	// Detect-then-correct runs after the raw rows are in hand: the raw
	// row doubles as Probs(x), so the detector costs one grouped squeezed
	// forward per lane, a clean-pass slot keeps its already-computed raw
	// row bit-identically, and only flagged slots pay the correction
	// forward that replaces theirs.
	if det := s.opts.Detector; det != nil {
		s.detectBatch(det, wp, w32, batch, delivered, rows)
	}
	now := time.Now()
	// Counters update before the replies go out so a client that reads
	// Stats right after its response sees its own batch accounted for.
	s.batchCount.Add(1)
	s.batchedImages.Add(uint64(len(batch)))
	for i, p := range batch {
		best := mathx.ArgMax(rows[i])
		pred := Prediction{Class: best, Prob: rows[i][best], Probs: rows[i], TM: p.tm, Precision: p.prec, Model: m.key, Detection: p.verdict}
		if s.opts.ClassName != nil {
			pred.Label = s.opts.ClassName(best)
		}
		s.recordLatency(now.Sub(p.enq))
		p.answer(reply{pred: pred})
	}
}

// recordLatency appends one enqueue-to-reply measurement to the sliding
// percentile window.
func (s *Server) recordLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.latMu.Lock()
	s.lat[s.latIdx] = ms
	s.latIdx = (s.latIdx + 1) % latWindow
	s.latCount++
	s.latMu.Unlock()
}
