package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/pipeline"
)

func startHTTP(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	pipe := servePipeline(t)
	s := New(pipe, Options{
		Workers: 2, MaxBatch: 8, MaxWait: time.Millisecond,
		ClassName: gtsrb.ClassName,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func imgPayload(class int) map[string]any {
	img := gtsrb.Canonical(class, 16)
	return map[string]any{"pixels": img.Data(), "shape": img.Shape()}
}

func TestHTTPPredict(t *testing.T) {
	s, ts := startHTTP(t)
	pipe := servePipeline(t)

	body := imgPayload(gtsrb.ClassStop)
	body["tm"] = "tm3"
	body["probs"] = true
	resp, raw := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got predictResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	want := pipe.Probs(gtsrb.Canonical(gtsrb.ClassStop, 16), pipeline.TM3)
	if len(got.Probs) != len(want) {
		t.Fatalf("probs len %d, want %d", len(got.Probs), len(want))
	}
	for i, v := range want {
		if got.Probs[i] != v {
			t.Fatalf("served prob[%d] = %v, direct %v", i, got.Probs[i], v)
		}
	}
	if got.TM != "TM-III" || got.Prob != want[got.Class] {
		t.Fatalf("response %+v inconsistent", got)
	}
	if got.Label == "" {
		t.Fatal("ClassName labeling not applied")
	}

	// Without "probs" the vector is omitted.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/predict", imgPayload(gtsrb.ClassStop))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp2.StatusCode)
	}
	var lean map[string]any
	if err := json.Unmarshal(raw2, &lean); err != nil {
		t.Fatal(err)
	}
	if _, present := lean["probs"]; present {
		t.Fatal("probs echoed without being requested")
	}
	_ = s
}

func TestHTTPPredictBatch(t *testing.T) {
	_, ts := startHTTP(t)
	body := map[string]any{
		"images": []map[string]any{imgPayload(gtsrb.ClassStop), imgPayload(gtsrb.ClassSpeed60)},
		"tm":     "2",
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict_batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict_batch status %d: %s", resp.StatusCode, raw)
	}
	var got struct {
		Results []predictResponse `json:"results"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 {
		t.Fatalf("%d results, want 2", len(got.Results))
	}
	for i, r := range got.Results {
		if r.TM != "TM-II" || r.Prob <= 0 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// neverRead is a request body that must be refused unread.
type neverRead struct{ t *testing.T }

func (r neverRead) Read([]byte) (int, error) {
	r.t.Error("body was read")
	return 0, io.EOF
}

func TestHTTPErrors(t *testing.T) {
	s, ts := startHTTP(t)
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"bad tm", "/v1/predict", func() map[string]any { b := imgPayload(0); b["tm"] = "tm9"; return b }(), http.StatusBadRequest},
		{"shape mismatch", "/v1/predict", map[string]any{"pixels": []float64{1, 2, 3}, "shape": []int{3}}, http.StatusBadRequest},
		{"pixel count mismatch", "/v1/predict", map[string]any{"pixels": []float64{1}, "shape": []int{3, 16, 16}}, http.StatusBadRequest},
		{"missing shape", "/v1/predict", map[string]any{"pixels": []float64{1}}, http.StatusBadRequest},
		// 2^32 × 2^32 wraps an int to 0 == len(pixels); the running product
		// must refuse it before the tensor is built.
		{"shape product overflow", "/v1/predict", map[string]any{"pixels": []float64{}, "shape": []int{1 << 32, 1 << 32}}, http.StatusBadRequest},
		{"shape product wraps to pixel count", "/v1/predict", map[string]any{"pixels": []float64{1, 2, 3, 4}, "shape": []int{4, 1<<62 + 1}}, http.StatusBadRequest},
		{"empty batch", "/v1/predict_batch", map[string]any{"images": []any{}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, raw)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q not structured", c.name, raw)
		}
		if strings.HasPrefix(c.name, "shape product") && (e["code"] != "bad_request" || !strings.Contains(e["error"], "pixels given")) {
			t.Errorf("%s: body %q, want bad_request with the pixel-count message", c.name, raw)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}

	// The two places the wire decoder is stricter than json.Decoder was:
	// bytes after the body's value, and a body over the size limit (413,
	// refused on its declared length before a byte of it is read).
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{"pixels":[1],"shape":[1]} {}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: status %d, want 400", resp.StatusCode)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", io.LimitReader(neverRead{t}, maxBodyBytes+1))
	req.ContentLength = maxBodyBytes + 1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusRequestEntityTooLarge || e["code"] != "too_large" {
		t.Errorf("oversized body: status %d body %q, want 413 with code too_large", rec.Code, rec.Body)
	}

	// Wrong methods.
	for path, method := range map[string]string{
		"/v1/predict": http.MethodGet,
		"/v1/healthz": http.MethodPost,
		"/v1/stats":   http.MethodPost,
	} {
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
		}
	}
}

// TestHTTPBodyFraming: the answer does not depend on how the body is
// framed, and a body that stops short of its Content-Length is a 400.
func TestHTTPBodyFraming(t *testing.T) {
	_, ts := startHTTP(t)
	body := imgPayload(gtsrb.ClassStop)
	body["probs"] = true
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	_, want := postJSON(t, ts.URL+"/v1/predict", body)

	// No Content-Length: an opaque reader makes the client send chunks.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || req.ContentLength != 0 || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("chunked body (declared length %d): status %d, err %v, answer differs: %v", req.ContentLength, resp.StatusCode, err, !bytes.Equal(got, want))
	}

	// Content-Length larger than the bytes sent.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(data)+100, data)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	short, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	short.Body.Close()
	if short.StatusCode != http.StatusBadRequest {
		t.Errorf("short body: status %d, want 400", short.StatusCode)
	}
}

// TestHTTPBatchNamesBadImage: a batch whose 7th image is wrong says which
// image (a well-formed one of the wrong size) or where (a syntax error).
func TestHTTPBatchNamesBadImage(t *testing.T) {
	_, ts := startHTTP(t)
	good, err := json.Marshal(imgPayload(gtsrb.ClassStop))
	if err != nil {
		t.Fatal(err)
	}
	batch := func(seventh string) string {
		imgs := make([]string, 8)
		for i := range imgs {
			imgs[i] = string(good)
		}
		imgs[6] = seventh
		return `{"images":[` + strings.Join(imgs, ",") + `]}`
	}
	syntax := batch(`{"pixels":[0.5,oops],"shape":[3,16,16]}`)
	for _, c := range []struct{ name, body, want string }{
		{"wrong size", batch(`{"pixels":[0.5],"shape":[3,16,16]}`), "image 6"},
		{"syntax error", syntax, fmt.Sprintf("offset %d", strings.Index(syntax, "oops"))},
	} {
		resp, err := http.Post(ts.URL+"/v1/predict_batch", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], c.want) {
			t.Errorf("%s: status %d, error %q, want 400 mentioning %q", c.name, resp.StatusCode, e["error"], c.want)
		}
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	_, ts := startHTTP(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	// Drive a little traffic, then read the counters back.
	for i := 0; i < 3; i++ {
		r, raw := postJSON(t, ts.URL+"/v1/predict", imgPayload(i))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("warmup predict %d: %d %s", i, r.StatusCode, raw)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests < 3 || st.Batches == 0 || st.MeanBatchOccupancy < 1 {
		t.Fatalf("stats after traffic = %+v", st)
	}
	if st.MaxBatch != 8 || st.Workers != 2 {
		t.Fatalf("stats config echo = %+v", st)
	}
}

// TestHTTPModelsAdmin drives the whole versioned-model admin surface
// over the wire: healthz model identity, the /v1/models catalog, loading
// a sibling version, pinning it per-request, an HTTP hot-swap of the
// default, unload rules, and the model gauges on /metrics.
func TestHTTPModelsAdmin(t *testing.T) {
	reg, v1 := testStore(t)
	s := NewFromModel(v1, filters.NewLAP(8), pipeline.DefaultAcquisition(11),
		Options{Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	img := testImages(1)[0]
	predict := func(model string) (int, predictResponse) {
		body := map[string]any{"pixels": img.Data(), "shape": img.Shape()}
		if model != "" {
			body["model"] = model
		}
		resp, raw := postJSON(t, ts.URL+"/v1/predict", body)
		var pr predictResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &pr); err != nil {
				t.Fatalf("predict response %q: %v", raw, err)
			}
		}
		return resp.StatusCode, pr
	}

	// healthz reports the identity of the model answering by default.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Model struct {
			Name       string `json:"name"`
			Version    string `json:"version"`
			Model      string `json:"model"`
			WeightHash string `json:"weight_hash"`
		} `json:"model"`
		ModelsLoaded int `json:"models_loaded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Model.Model != "m@v1" || health.Model.Name != "m" || health.Model.WeightHash == "" {
		t.Fatalf("healthz model identity = %+v", health.Model)
	}
	if health.ModelsLoaded != 1 {
		t.Fatalf("models_loaded = %d, want 1", health.ModelsLoaded)
	}

	// GET /v1/models: the active version plus the registry catalog.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Active   string        `json:"active"`
		Models   []ModelStatus `json:"models"`
		Registry []string      `json:"registry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Active != "m@v1" || len(list.Models) != 1 {
		t.Fatalf("GET /v1/models = %+v", list)
	}
	if len(list.Registry) != 2 {
		t.Fatalf("registry catalog = %v, want both versions", list.Registry)
	}

	// Load the sibling version and pin it per-request: the response must
	// label the version that answered.
	resp2, raw := postJSON(t, ts.URL+"/v1/models", map[string]any{"action": "load", "model": "m@v2"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp2.StatusCode, raw)
	}
	var action struct {
		Action, Model, Active string
	}
	if err := json.Unmarshal(raw, &action); err != nil {
		t.Fatal(err)
	}
	if action.Model != "m@v2" || action.Active != "m@v1" {
		t.Fatalf("load response = %+v (load must not change the default)", action)
	}
	if code, pr := predict("m@v2"); code != http.StatusOK || pr.Model != "m@v2" {
		t.Fatalf("pinned predict = %d, model %q", code, pr.Model)
	}
	if code, pr := predict(""); code != http.StatusOK || pr.Model != "m@v1" {
		t.Fatalf("default predict before swap = %d, model %q", code, pr.Model)
	}

	// Hot-swap the default over HTTP, keeping v1 loaded for pinning.
	resp2, raw = postJSON(t, ts.URL+"/v1/models", map[string]any{"action": "activate", "model": "m@v2", "keep": true})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("activate: %d %s", resp2.StatusCode, raw)
	}
	if code, pr := predict(""); code != http.StatusOK || pr.Model != "m@v2" {
		t.Fatalf("default predict after swap = %d, model %q", code, pr.Model)
	}
	if code, pr := predict("m@v1"); code != http.StatusOK || pr.Model != "m@v1" {
		t.Fatalf("kept version predict = %d, model %q", code, pr.Model)
	}

	// Unload rules: the active version refuses, the kept one retires.
	if resp2, raw = postJSON(t, ts.URL+"/v1/models", map[string]any{"action": "unload", "model": "m@v2"}); resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unloading the active model = %d %s, want 400", resp2.StatusCode, raw)
	}
	if resp2, raw = postJSON(t, ts.URL+"/v1/models", map[string]any{"action": "unload", "model": "m@v1"}); resp2.StatusCode != http.StatusOK {
		t.Fatalf("unload kept: %d %s", resp2.StatusCode, raw)
	}
	if code, _ := predict("m@v1"); code != http.StatusBadRequest {
		t.Fatalf("predict on unloaded version = %d, want 400", code)
	}
	if resp2, raw = postJSON(t, ts.URL+"/v1/models", map[string]any{"action": "reboot", "model": "m"}); resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action = %d %s, want 400", resp2.StatusCode, raw)
	}

	// The swap and the per-model gauges are visible on /metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(b)
	for _, want := range []string{
		`fademl_model_active{model="m@v2"} 1`,
		"fademl_model_swaps_total 1",
		`fademl_model_requests_total{model="m@v2"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// Example of the one-liner smoke the CI workflow runs against a live
// fademl-serve process.
func TestHTTPSmokeLine(t *testing.T) {
	_, ts := startHTTP(t)
	resp, raw := postJSON(t, ts.URL+"/v1/predict", imgPayload(gtsrb.ClassStop))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("smoke: %d %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("smoke: invalid JSON: %v", err)
	}
	if _, ok := out["class"]; !ok {
		t.Fatalf("smoke: no class field in %s", raw)
	}
}
