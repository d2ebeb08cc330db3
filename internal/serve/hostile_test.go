package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// TestHostileSpecs feeds every spec-taking route the inputs that used to
// hurt the process rather than the request: a window radius that parsed
// and then asked Apply for a 51 GB buffer, non-finite numbers that
// round-tripped into crafting, a 20 000-deep chain nest that cost a
// quadratic parse before admission control, and a megabyte of commas.
// Each must be a prompt 400 bad_request, and the server must still
// answer /v1/healthz afterwards.
func TestHostileSpecs(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 50})
	defer s.Close()
	h := s.Handler()

	deep := strings.Repeat("chain(", 20000) + "median(r=1)" + strings.Repeat(")", 20000)
	commas := strings.Repeat(",", 1<<20)
	img := imgPayload(2)

	body := func(fields map[string]any, withImage bool) string {
		if withImage {
			fields["pixels"], fields["shape"] = img["pixels"], img["shape"]
		}
		data, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	defend := func(spec string) string { return body(map[string]any{"filter": spec}, true) }
	attack := func(spec, adaptive string) string {
		return body(map[string]any{"attack": spec, "adaptive": adaptive, "source": 2, "target": 1, "tm": "3"}, false)
	}
	detect := func(spec string) string { return body(map[string]any{"detector": spec}, true) }
	evaluate := func(axis string, value any) string {
		fields := map[string]any{"attacks": []string{"fgsm(eps=0.05)"}, "tms": []string{"3"},
			"cases": []map[string]int{{"source": 2, "target": 1}}}
		fields[axis] = value
		return body(fields, false)
	}

	cases := []struct{ name, path, body, want string }{
		{"defend oversized radius", "/v1/defend", defend("median(r=40000)"), "in [1, 16]"},
		{"defend oversized stencil", "/v1/defend", defend("lap(np=1000000000)"), "in [1, 1024]"},
		{"defend non-finite", "/v1/defend", defend("gaussian(sigma=Inf)"), "in [1e-06, 10]"},
		{"defend deep nesting", "/v1/defend", defend(deep), "limit 4096"},
		{"defend nesting over the depth limit", "/v1/defend", defend(strings.Repeat("chain(", 9) + "median(r=1)" + strings.Repeat(")", 9)), "nested deeper than 8"},
		{"defend comma flood", "/v1/defend", defend("chain(" + commas + ")"), "limit 4096"},
		{"attack NaN", "/v1/attack", attack("fgsm(eps=NaN)", ""), "got NaN"},
		{"attack Inf and negative steps", "/v1/attack", attack("pgd(eps=Inf,steps=-3)", ""), "got +Inf"},
		{"attack comma flood", "/v1/attack", attack("pgd("+commas+")", ""), "limit 4096"},
		{"attack oversized draws", "/v1/attack", attack("fgsm", "eot(draws=1000000000)"), "in [1, 256]"},
		{"detect NaN", "/v1/detect", detect("detect(thr=NaN)"), "got NaN"},
		{"detect deep squeezer", "/v1/detect", detect("detect(squeezers=(" + deep + "))"), "limit 4096"},
		{"detect empty item", "/v1/detect", detect("detect(,thr=0.5)"), "want key=value"},
		{"detect empty squeezer", "/v1/detect", detect("detect(squeezers=(median(r=1),,))"), "item 2 is empty"},
		{"evaluate attack NaN", "/v1/evaluate", evaluate("attacks", []string{"bim(eps=NaN)"}), "got NaN"},
		{"evaluate deep filter", "/v1/evaluate", evaluate("filters", []string{deep}), "limit 4096"},
		{"evaluate oversized filter", "/v1/evaluate", evaluate("filters", []string{"nlm(window=5000)"}), "in [1, 7]"},
		{"evaluate oversized draws", "/v1/evaluate", evaluate("adaptive", []string{"eot(draws=1000000000)"}), "in [1, 256]"},
		{"evaluate detector Inf", "/v1/evaluate", evaluate("detector", "detect(thr=Inf)"), "got +Inf"},
		{"evaluate detector comma flood", "/v1/evaluate", evaluate("detector", "detect("+commas+")"), "limit 4096"},
	}
	for _, c := range cases {
		start := time.Now()
		w := doJSON(h, http.MethodPost, c.path, c.body)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: answered in %v, want a bounded-work rejection", c.name, took)
		}
		var reply struct{ Code, Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil && w.Code == http.StatusBadRequest {
			t.Errorf("%s: 400 body is not JSON: %v", c.name, err)
		}
		if w.Code != http.StatusBadRequest || reply.Code != "bad_request" || !strings.Contains(reply.Error, c.want) {
			t.Errorf("%s: status %d code %q, want 400 bad_request naming %q: %.300s", c.name, w.Code, reply.Code, c.want, w.Body.String())
		}
		if w.Body.Len() > 8<<10 {
			t.Errorf("%s: error body echoes %d bytes of the hostile spec", c.name, w.Body.Len())
		}
		hw := httptest.NewRecorder()
		h.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if hw.Code != http.StatusOK {
			t.Fatalf("%s: healthz after the request = %d", c.name, hw.Code)
		}
	}
}

// TestHostilePixels is the same contract for the image itself: a pixel
// that is not a finite value in [0, 1] is refused at every door an image
// enters by — 400 bad_request on the wire, an error from the Go API
// (where NaN and Inf, which JSON cannot carry, are reachable too). The
// server's own measurement views are exempt: a deployed normalize stage
// leaves [0, 1] by design and must keep predicting.
func TestHostilePixels(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 50})
	defer s.Close()
	h := s.Handler()

	withPixel := func(v float64, fields map[string]any) string {
		img := gtsrb.Canonical(2, 16)
		img.Data()[5] = v
		fields["pixels"], fields["shape"] = img.Data(), img.Shape()
		data, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, v := range []float64{1e308, -5} {
		evalCase := withPixel(v, map[string]any{"source": 2, "target": 1})
		for path, body := range map[string]string{
			"/v1/predict":       withPixel(v, map[string]any{}),
			"/v1/predict_batch": `{"images":[` + withPixel(v, map[string]any{}) + `]}`,
			"/v1/defend":        withPixel(v, map[string]any{"filter": "median(r=1)"}),
			"/v1/detect":        withPixel(v, map[string]any{"detector": "detect"}),
			"/v1/attack":        withPixel(v, map[string]any{"attack": "fgsm(eps=0.05)", "source": 2, "target": 1}),
			"/v1/evaluate":      `{"attacks":["fgsm(eps=0.05)"],"cases":[` + evalCase + `]}`,
		} {
			w := doJSON(h, http.MethodPost, path, body)
			var reply struct{ Code, Error string }
			json.Unmarshal(w.Body.Bytes(), &reply)
			if w.Code != http.StatusBadRequest || reply.Code != "bad_request" || !strings.Contains(reply.Error, "pixel 5") {
				t.Errorf("%s with pixel %v: status %d, want 400 bad_request naming pixel 5: %.300s", path, v, w.Code, w.Body.String())
			}
		}
	}

	ctx := context.Background()
	for _, v := range []float64{math.NaN(), math.Inf(1), 1.0000001} {
		img := gtsrb.Canonical(2, 16)
		img.Data()[5] = v
		_, errDo := s.Do(ctx, Request{Images: []*tensor.Tensor{img}})
		_, errDefend := s.Defend(ctx, DefendRequest{Image: img, Spec: "median(r=1)"})
		_, errDetect := s.Detect(ctx, DetectRequest{Image: img, Spec: "detect"})
		_, errAttack := s.Attack(ctx, AttackRequest{Spec: "fgsm(eps=0.05)", Image: img, Source: 2, Target: 1})
		_, errEval := s.Evaluate(ctx, EvaluateRequest{Specs: []string{"fgsm(eps=0.05)"}, Cases: []EvalCase{{Image: img, Source: 2, Target: 1}}})
		for name, err := range map[string]error{"Do": errDo, "Defend": errDefend, "Detect": errDetect, "Attack": errAttack, "Evaluate": errEval} {
			if err == nil || !strings.Contains(err.Error(), "pixel 5") {
				t.Errorf("%s with pixel %v: err = %v, want a rejection naming pixel 5", name, v, err)
			}
		}
	}

	// In-range input whose filtered view leaves [0, 1] is served.
	res, err := s.Defend(ctx, DefendRequest{Image: gtsrb.Canonical(2, 16), Spec: "normalize(mean=0,std=1)", Predict: true})
	if err != nil || res.Prediction == nil {
		t.Fatalf("defend+predict through normalize: %v", err)
	}
	if lo, hi := res.Filtered.Min(), res.Filtered.Max(); lo >= 0 && hi <= 1 {
		t.Fatalf("normalize output stayed in [%v, %v]; the exemption is not exercised", lo, hi)
	}
}
