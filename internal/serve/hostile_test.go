package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/attacks"
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
