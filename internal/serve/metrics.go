package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Prometheus-style observability.
//
// GET /metrics renders the server's operational counters in the
// Prometheus text exposition format (version 0.0.4), on the standard
// library alone: lane depths and shed totals, cache hit rates,
// micro-batching counters, and a per-route latency histogram with
// status-class counters. The metric set is fixed at construction; every
// update is a lock-free atomic, so instrumentation costs nanoseconds on
// the hot path.

// latencyBuckets are the histogram bucket upper bounds in seconds.
var latencyBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic counters.
// Buckets store per-interval counts; rendering cumulates them into the
// Prometheus le-form.
type histogram struct {
	count  atomic.Uint64
	sumNs  atomic.Int64
	bucket [len(latencyBuckets) + 1]atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && s > latencyBuckets[i] {
		i++
	}
	h.bucket[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// routeMetrics instruments one HTTP route: a latency histogram and
// response counts by status class.
type routeMetrics struct {
	name string
	lat  histogram
	// code[i] counts responses with status i00..i99 (index 1..5).
	code [6]atomic.Uint64
	// shed counts 429 responses specifically.
	shed atomic.Uint64
}

func (m *routeMetrics) observe(d time.Duration, status int) {
	m.lat.observe(d)
	if c := status / 100; c >= 1 && c <= 5 {
		m.code[c].Add(1)
	}
	if status == http.StatusTooManyRequests {
		m.shed.Add(1)
	}
}

// metricRoutes is the fixed set of instrumented routes.
var metricRoutes = []string{
	"predict", "predict_batch", "defend", "detect", "attack", "evaluate", "models", "healthz", "stats",
}

// scoreBuckets are the detector-score histogram bucket upper bounds
// (the L1 discrepancy metric lives in [0, 2]; top1 in [0, 1]).
var scoreBuckets = [...]float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2,
}

// scoreHistogram is a fixed-bucket histogram over detector scores. The
// sum is accumulated in millionths so the hot path stays a lock-free
// integer atomic.
type scoreHistogram struct {
	count     atomic.Uint64
	sumMicros atomic.Int64
	bucket    [len(scoreBuckets) + 1]atomic.Uint64
}

func (h *scoreHistogram) observe(v float64) {
	i := 0
	for i < len(scoreBuckets) && v > scoreBuckets[i] {
		i++
	}
	h.bucket[i].Add(1)
	h.count.Add(1)
	h.sumMicros.Add(int64(v * 1e6))
}

// serverMetrics holds the per-route instruments, the recovered-panic
// counter, and the detector verdict counters and score histogram.
type serverMetrics struct {
	routes []*routeMetrics

	inferencePanics atomic.Uint64

	detectClean     atomic.Uint64
	detectFlagged   atomic.Uint64
	detectCorrected atomic.Uint64
	detectScore     scoreHistogram
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{routes: make([]*routeMetrics, len(metricRoutes))}
	for i, name := range metricRoutes {
		m.routes[i] = &routeMetrics{name: name}
	}
	return m
}

// recordDetection counts one detector verdict (from the
// detect-then-correct route or a /v1/detect call).
func (m *serverMetrics) recordDetection(score float64, flagged, corrected bool) {
	if flagged {
		m.detectFlagged.Add(1)
	} else {
		m.detectClean.Add(1)
	}
	if corrected {
		m.detectCorrected.Add(1)
	}
	m.detectScore.observe(score)
}

// route returns the instrument for a route name (the set is tiny and
// fixed, so a linear scan beats a map + hashing).
func (m *serverMetrics) route(name string) *routeMetrics {
	for _, r := range m.routes {
		if r.name == name {
			return r
		}
	}
	return nil
}

// statusRecorder captures the status code a handler writes so the
// instrumentation middleware can count it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with latency + status accounting under the
// given route name.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics.route(route)
	if m == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		m.observe(time.Since(start), rec.status)
	}
}

// WritePrometheus renders the server's operational state in the
// Prometheus text exposition format: admission-lane depths/limits/sheds,
// cache hits/misses/occupancy, micro-batching counters, the
// draining flag, and per-route request totals + latency histograms.
func (s *Server) WritePrometheus(w io.Writer) {
	writeGaugeHeader(w, "fademl_up", "1 while the serving process is alive.")
	fmt.Fprintf(w, "fademl_up 1\n")
	writeGaugeHeader(w, "fademl_draining", "1 once BeginDrain was called (or the server closed).")
	draining := 0
	if s.Draining() {
		draining = 1
	}
	fmt.Fprintf(w, "fademl_draining %d\n", draining)
	writeGaugeHeader(w, "fademl_workers", "Inference worker pool size.")
	fmt.Fprintf(w, "fademl_workers %d\n", s.opts.Workers)

	writeCounterHeader(w, "fademl_requests_total", "Accepted prediction requests (enqueued to the micro-batcher).")
	fmt.Fprintf(w, "fademl_requests_total %d\n", s.requests.Load())
	writeCounterHeader(w, "fademl_batches_total", "Micro-batches dispatched to workers.")
	fmt.Fprintf(w, "fademl_batches_total %d\n", s.batchCount.Load())
	writeCounterHeader(w, "fademl_batched_images_total", "Images processed across all micro-batches.")
	fmt.Fprintf(w, "fademl_batched_images_total %d\n", s.batchedImages.Load())

	writeCounterHeader(w, "fademl_inference_panics_total", "Micro-batches whose worker panicked; every slot was answered with an error.")
	fmt.Fprintf(w, "fademl_inference_panics_total %d\n", s.metrics.inferencePanics.Load())

	writeGaugeHeader(w, "fademl_lane_depth", "Admitted-but-unfinished requests per priority lane.")
	writeGaugeHeader(w, "fademl_lane_limit", "Admission bound per lane (0 = unbounded).")
	writeCounterHeader(w, "fademl_lane_admitted_total", "Admitted requests per lane.")
	writeCounterHeader(w, "fademl_lane_shed_total", "Requests shed (429) per lane.")
	for _, l := range []*lane{s.interactive, s.bulk} {
		st := l.stats()
		fmt.Fprintf(w, "fademl_lane_depth{lane=%q} %d\n", l.name, st.Depth)
		fmt.Fprintf(w, "fademl_lane_limit{lane=%q} %d\n", l.name, st.Limit)
		fmt.Fprintf(w, "fademl_lane_admitted_total{lane=%q} %d\n", l.name, st.Admitted)
		fmt.Fprintf(w, "fademl_lane_shed_total{lane=%q} %d\n", l.name, st.Shed)
	}

	writeGaugeHeader(w, "fademl_model_active", "1 for the model version currently answering default-model requests.")
	if m := s.active.Load(); m != nil {
		fmt.Fprintf(w, "fademl_model_active{model=%q} 1\n", m.key)
	}
	writeGaugeHeader(w, "fademl_models_loaded", "Model versions resident in the serving table.")
	s.modelMu.Lock()
	loadedModels := make([]*servedModel, 0, len(s.models))
	for _, m := range s.models {
		loadedModels = append(loadedModels, m)
	}
	s.modelMu.Unlock()
	sort.Slice(loadedModels, func(i, j int) bool { return loadedModels[i].key < loadedModels[j].key })
	fmt.Fprintf(w, "fademl_models_loaded %d\n", len(loadedModels))
	writeCounterHeader(w, "fademl_model_requests_total", "Prediction requests answered per model version.")
	for _, m := range loadedModels {
		fmt.Fprintf(w, "fademl_model_requests_total{model=%q} %d\n", m.key, m.requests.Load())
	}
	writeCounterHeader(w, "fademl_model_swaps_total", "Hot-swaps of the default model since start.")
	fmt.Fprintf(w, "fademl_model_swaps_total %d\n", s.swaps.Load())

	cs := s.cache.stats()
	writeCounterHeader(w, "fademl_cache_hits_total", "Content-addressed cache hits.")
	fmt.Fprintf(w, "fademl_cache_hits_total %d\n", cs.Hits)
	writeCounterHeader(w, "fademl_cache_misses_total", "Content-addressed cache misses.")
	fmt.Fprintf(w, "fademl_cache_misses_total %d\n", cs.Misses)
	writeGaugeHeader(w, "fademl_cache_entries", "Entries resident in the content-addressed cache.")
	fmt.Fprintf(w, "fademl_cache_entries %d\n", cs.Entries)
	writeGaugeHeader(w, "fademl_cache_capacity", "Entry bound of the content-addressed cache (0 = disabled).")
	fmt.Fprintf(w, "fademl_cache_capacity %d\n", cs.Capacity)

	writeCounterHeader(w, "fademl_detector_verdicts_total", "Detector verdicts by outcome (detect-then-correct route + /v1/detect).")
	fmt.Fprintf(w, "fademl_detector_verdicts_total{verdict=\"clean\"} %d\n", s.metrics.detectClean.Load())
	fmt.Fprintf(w, "fademl_detector_verdicts_total{verdict=\"flagged\"} %d\n", s.metrics.detectFlagged.Load())
	writeCounterHeader(w, "fademl_detector_corrected_total", "Flagged inputs re-scored through the correction chain.")
	fmt.Fprintf(w, "fademl_detector_corrected_total %d\n", s.metrics.detectCorrected.Load())
	fmt.Fprintf(w, "# HELP fademl_detector_score Detector discrepancy scores.\n")
	fmt.Fprintf(w, "# TYPE fademl_detector_score histogram\n")
	if h := &s.metrics.detectScore; h.count.Load() > 0 {
		cum := uint64(0)
		for i, le := range scoreBuckets {
			cum += h.bucket[i].Load()
			fmt.Fprintf(w, "fademl_detector_score_bucket{le=\"%g\"} %d\n", le, cum)
		}
		cum += h.bucket[len(scoreBuckets)].Load()
		fmt.Fprintf(w, "fademl_detector_score_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "fademl_detector_score_sum %g\n", float64(h.sumMicros.Load())/1e6)
		fmt.Fprintf(w, "fademl_detector_score_count %d\n", cum)
	}

	writeCounterHeader(w, "fademl_http_requests_total", "HTTP responses by route and status class.")
	for _, m := range s.metrics.routes {
		for c := 1; c <= 5; c++ {
			if n := m.code[c].Load(); n > 0 {
				fmt.Fprintf(w, "fademl_http_requests_total{route=%q,code=\"%dxx\"} %d\n", m.name, c, n)
			}
		}
	}
	writeCounterHeader(w, "fademl_http_shed_total", "HTTP 429 responses by route.")
	for _, m := range s.metrics.routes {
		if n := m.shed.Load(); n > 0 {
			fmt.Fprintf(w, "fademl_http_shed_total{route=%q} %d\n", m.name, n)
		}
	}

	fmt.Fprintf(w, "# HELP fademl_http_request_duration_seconds Request latency by route.\n")
	fmt.Fprintf(w, "# TYPE fademl_http_request_duration_seconds histogram\n")
	for _, m := range s.metrics.routes {
		if m.lat.count.Load() == 0 {
			continue
		}
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += m.lat.bucket[i].Load()
			fmt.Fprintf(w, "fademl_http_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n",
				m.name, le, cum)
		}
		cum += m.lat.bucket[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "fademl_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", m.name, cum)
		fmt.Fprintf(w, "fademl_http_request_duration_seconds_sum{route=%q} %g\n",
			m.name, float64(m.lat.sumNs.Load())/float64(time.Second))
		fmt.Fprintf(w, "fademl_http_request_duration_seconds_count{route=%q} %d\n", m.name, cum)
	}
}

func writeCounterHeader(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
}

func writeGaugeHeader(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WritePrometheus(w)
}
