package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gtsrb"
)

// metricsFixture builds a served HTTP surface with a tiny interactive
// lane so tests can force sheds deterministically.
func metricsFixture(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	s := New(servePipeline(t), Options{
		Workers: 1, MaxBatch: 4, MaxWait: time.Millisecond,
		InteractiveLimit: 2,
	})
	t.Cleanup(s.Close)
	return s, s.Handler()
}

func predictBody(i int) string {
	img := gtsrb.Canonical(i%gtsrb.NumClasses, 16)
	b, _ := json.Marshal(map[string]any{"pixels": img.Data(), "shape": img.Shape()})
	return string(b)
}

func doJSON(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestMetricsEndpoint: /metrics must expose lane, cache, shed and
// per-route latency series in the Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s, h := metricsFixture(t)

	// Two distinct predicts, then a repeat for a cache hit.
	for _, i := range []int{0, 1, 0} {
		if w := doJSON(h, http.MethodPost, "/v1/predict", predictBody(i)); w.Code != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	// Hold the whole interactive lane to force a shed on a fresh image.
	release, err := s.interactive.admit(2)
	if err != nil {
		t.Fatal(err)
	}
	w429 := doJSON(h, http.MethodPost, "/v1/predict", predictBody(2))
	release()
	if w429.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429", w429.Code)
	}
	if ra := w429.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After header")
	}
	var shed struct{ Error, Code string }
	if err := json.Unmarshal(w429.Body.Bytes(), &shed); err != nil || shed.Code != "overloaded" {
		t.Fatalf("shed body %q lacks code=overloaded", w429.Body.String())
	}

	w := doJSON(h, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`fademl_lane_depth{lane="interactive"}`,
		`fademl_lane_limit{lane="interactive"} 2`,
		`fademl_lane_shed_total{lane="interactive"} 1`,
		`fademl_lane_depth{lane="bulk"}`,
		"fademl_cache_hits_total 1",
		"fademl_cache_misses_total",
		`fademl_http_requests_total{route="predict",code="2xx"} 3`,
		`fademl_http_requests_total{route="predict",code="4xx"} 1`,
		`fademl_http_shed_total{route="predict"} 1`,
		`fademl_http_request_duration_seconds_bucket{route="predict",le="+Inf"} 4`,
		`fademl_http_request_duration_seconds_count{route="predict"} 4`,
		"fademl_inference_panics_total 0",
		"fademl_draining 0",
		"fademl_up 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHealthzDegradedAndDraining: healthz must flip ok → degraded after
// a shed and to 503 draining after BeginDrain.
func TestHealthzDegradedAndDraining(t *testing.T) {
	s, h := metricsFixture(t)

	status := func() (int, string) {
		w := doJSON(h, http.MethodGet, "/v1/healthz", "")
		var body struct {
			Status string `json:"status"`
			Code   string `json:"code"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		if body.Status != "" {
			return w.Code, body.Status
		}
		return w.Code, body.Code
	}

	if code, st := status(); code != http.StatusOK || st != "ok" {
		t.Fatalf("fresh healthz: %d %q", code, st)
	}

	// Force a shed → degraded (still 200: the replica stays routable).
	release, err := s.interactive.admit(2)
	if err != nil {
		t.Fatal(err)
	}
	doJSON(h, http.MethodPost, "/v1/predict", predictBody(0))
	release()
	if code, st := status(); code != http.StatusOK || st != "degraded" {
		t.Fatalf("healthz after shed: %d %q, want 200 degraded", code, st)
	}

	s.BeginDrain()
	if code, st := status(); code != http.StatusServiceUnavailable || st != "draining" {
		t.Fatalf("healthz during drain: %d %q, want 503 draining", code, st)
	}
	// Draining refusals on the work routes are 503 code=draining too.
	w := doJSON(h, http.MethodPost, "/v1/predict", predictBody(1))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"draining"`) {
		t.Fatalf("predict during drain: %d %s", w.Code, w.Body.String())
	}
}

// TestDeadlineIs504: a server-side deadline hit must surface as 504 with
// code "deadline".
func TestDeadlineIs504(t *testing.T) {
	chaos := &Chaos{}
	chaos.SetBatchDelay(300 * time.Millisecond)
	s := New(servePipeline(t), Options{
		Workers: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		PredictDeadline: 10 * time.Millisecond, CacheSize: -1, Chaos: chaos,
	})
	t.Cleanup(s.Close)
	w := doJSON(s.Handler(), http.MethodPost, "/v1/predict", predictBody(0))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"deadline"`) {
		t.Fatalf("504 body lacks code=deadline: %s", w.Body.String())
	}
}

// TestErrorBodiesCarryCode: every error body is structured JSON with a
// machine-readable code.
func TestErrorBodiesCarryCode(t *testing.T) {
	_, h := metricsFixture(t)
	w := doJSON(h, http.MethodPost, "/v1/predict", `{"pixels":[1],"shape":[3,2,2]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d", w.Code)
	}
	var body struct{ Error, Code string }
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Code != "bad_request" || body.Error == "" {
		t.Fatalf("error body %+v lacks code/message", body)
	}
	if w := doJSON(h, http.MethodGet, "/v1/predict", ""); w.Code != http.StatusMethodNotAllowed ||
		!strings.Contains(w.Body.String(), "method_not_allowed") {
		t.Fatalf("method error: %d %s", w.Code, w.Body.String())
	}
}
