package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/attacks"
	"repro/internal/pipeline"
)

// TestEvaluateAdaptiveAxis pins the adaptive crafting axis: one sweep
// over blind, bpda and eot produces one series per mode on the same
// attack × tm × filter grid, labels every cell with its crafting mode,
// and reports a blind-baseline gap for each stronger mode.
func TestEvaluateAdaptiveAxis(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 120})
	defer s.Close()
	res, err := s.Evaluate(t.Context(), EvaluateRequest{
		Specs:    []string{"bim(eps=0.1,alpha=0.02,steps=10)"},
		TMs:      []pipeline.ThreatModel{pipeline.TM3},
		Filters:  []string{"randnoise(sigma=0.1,seed=1)"},
		Adaptive: []string{"blind", "bpda", "eot(draws=2)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"blind", "bpda", "eot(draws=2)"}
	if len(res.Summaries) != len(wantModes) {
		t.Fatalf("got %d summaries, want %d (one per mode)", len(res.Summaries), len(wantModes))
	}
	rates := map[string]float64{}
	for i, sm := range res.Summaries {
		if sm.Adaptive != wantModes[i] {
			t.Errorf("summary %d adaptive = %q, want %q", i, sm.Adaptive, wantModes[i])
		}
		if sm.Filter != "randnoise(sigma=0.1,seed=1)" || sm.Cells != 1 {
			t.Errorf("summary %d: filter=%q cells=%d", i, sm.Filter, sm.Cells)
		}
		rates[sm.Adaptive] = sm.FoolingRate
	}
	if len(res.Cells) != len(wantModes) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(wantModes))
	}
	for i, cell := range res.Cells {
		if cell.Adaptive != wantModes[i] {
			t.Errorf("cell %d adaptive = %q, want %q", i, cell.Adaptive, wantModes[i])
		}
	}
	// Gaps: one entry per stronger-than-blind mode, with the arithmetic
	// pinned to the series rates.
	if len(res.Gaps) != 2 {
		t.Fatalf("got %d gaps, want 2 (bpda, eot)", len(res.Gaps))
	}
	for _, g := range res.Gaps {
		if g.BlindRate != rates["blind"] {
			t.Errorf("gap %s blind rate %v, want %v", g.Adaptive, g.BlindRate, rates["blind"])
		}
		if g.AdaptiveRate != rates[g.Adaptive] {
			t.Errorf("gap %s adaptive rate %v, want %v", g.Adaptive, g.AdaptiveRate, rates[g.Adaptive])
		}
		if g.Gap != g.AdaptiveRate-g.BlindRate {
			t.Errorf("gap %s arithmetic: %v != %v - %v", g.Adaptive, g.Gap, g.AdaptiveRate, g.BlindRate)
		}
	}
}

// TestEvaluateAdaptiveLegacyLabels pins backward compatibility on
// /v1/evaluate: a sweep without an "adaptive" axis keeps the single
// legacy series, labelled blind (or bpda for "aware": true), and reports
// no gaps.
func TestEvaluateAdaptiveLegacyLabels(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 60})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	for _, c := range []struct {
		aware bool
		want  string
	}{{false, "blind"}, {true, "bpda"}} {
		resp, data := postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
			"attacks": []string{"fgsm(eps=0.1)"},
			"tms":     []string{"3"},
			"aware":   c.aware,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("aware=%v: evaluate status %d: %s", c.aware, resp.StatusCode, data)
		}
		var out struct {
			Summaries []struct {
				Adaptive string `json:"adaptive"`
			} `json:"summaries"`
			Gaps json.RawMessage `json:"gaps"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Summaries) != 1 || out.Summaries[0].Adaptive != c.want {
			t.Errorf("aware=%v: summaries %+v, want one %q series", c.aware, out.Summaries, c.want)
		}
		if out.Gaps != nil {
			t.Errorf("aware=%v: legacy sweep reported gaps %s", c.aware, out.Gaps)
		}
	}
}

// TestAwareIsBPDAOverHTTP pins the "aware" wire key: on /v1/attack and
// /v1/evaluate, "aware": true answers byte for byte what the explicit
// bpda crafting mode answers.
func TestAwareIsBPDAOverHTTP(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 60})
	defer s.Close()
	h := s.Handler()
	post := func(path string, body map[string]any) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", path, data, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	for _, c := range []struct {
		path     string
		body     map[string]any
		adaptive any
	}{
		{"/v1/attack", map[string]any{"attack": "bim(eps=0.1,alpha=0.02,steps=5)", "source": 3, "target": 1, "tm": "3", "adv": true}, "bpda"},
		{"/v1/evaluate", map[string]any{"attacks": []string{"fgsm(eps=0.1)"}, "tms": []string{"3"}, "filters": []string{"median(r=1)"}}, []string{"bpda"}},
	} {
		aware, explicit := maps.Clone(c.body), maps.Clone(c.body)
		aware["aware"] = true
		explicit["adaptive"] = c.adaptive
		if got, want := post(c.path, aware), post(c.path, explicit); !bytes.Equal(got, want) {
			t.Errorf("%s: \"aware\": true answered\n%.400s\nwant the bpda answer\n%.400s", c.path, got, want)
		}
	}
}

// TestEvaluateAdaptiveBlindSharing pins the crafting-reuse contract:
// blind examples depend only on (attack, case), so the blind series of
// every filter reuses one crafted example — identical query accounting
// and an identical unfiltered view across filters.
func TestEvaluateAdaptiveBlindSharing(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 60})
	defer s.Close()
	res, err := s.Evaluate(t.Context(), EvaluateRequest{
		Specs:    []string{"fgsm(eps=0.1)"},
		TMs:      []pipeline.ThreatModel{pipeline.TM3},
		Filters:  []string{"none", "median(r=1)", "lap(np=8)"},
		Adaptive: []string{"blind"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	first := res.Cells[0]
	for _, cell := range res.Cells[1:] {
		if cell.Queries != first.Queries {
			t.Errorf("blind cell re-spent the attack budget: %d vs %d queries", cell.Queries, first.Queries)
		}
		if cell.TM1Pred != first.TM1Pred || cell.TM1Conf != first.TM1Conf {
			t.Error("blind cells disagree on the unfiltered view — crafted example not shared")
		}
	}
}

// TestEvaluateAdaptiveErrors pins up-front validation of the adaptive
// axis: malformed modes fail the whole sweep before any crafting, and
// the mode axis participates in the grid cap.
func TestEvaluateAdaptiveErrors(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 10})
	defer s.Close()
	for _, bad := range []string{"warp", "eot(draws=0)", "eot(draws=x)", "blind(x=1)"} {
		_, err := s.Evaluate(t.Context(), EvaluateRequest{
			Specs:    []string{"fgsm"},
			Adaptive: []string{bad},
		})
		if err == nil {
			t.Errorf("adaptive mode %q accepted", bad)
		}
	}
	oversize := make([]string, maxEvalCells+1)
	for i := range oversize {
		oversize[i] = "blind"
	}
	if _, err := s.Evaluate(t.Context(), EvaluateRequest{
		Specs:    []string{"fgsm"},
		Adaptive: oversize,
	}); err == nil {
		t.Error("oversize adaptive grid accepted")
	}
}

// TestEvaluateHTTPAdaptive exercises the adaptive axis of
// POST /v1/evaluate end to end: gaps appear in the JSON response, and an
// unknown adaptive mode is a 400, not a 500.
func TestEvaluateHTTPAdaptive(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 120})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, data := postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
		"attacks":  []string{"bim(eps=0.1,alpha=0.02,steps=10)"},
		"tms":      []string{"3"},
		"filters":  []string{"randnoise(sigma=0.1,seed=1)"},
		"adaptive": []string{"blind", "eot(draws=2)"},
		"cases":    []map[string]any{{"source": 3, "target": 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Cells []struct {
			Adaptive string `json:"adaptive"`
		} `json:"cells"`
		Summaries []struct {
			Adaptive    string  `json:"adaptive"`
			FoolingRate float64 `json:"fooling_rate"`
		} `json:"summaries"`
		Gaps []struct {
			TM           string  `json:"tm"`
			Adaptive     string  `json:"adaptive"`
			BlindRate    float64 `json:"blind_rate"`
			AdaptiveRate float64 `json:"adaptive_rate"`
			Gap          float64 `json:"gap"`
		} `json:"gaps"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 2 || len(out.Summaries) != 2 {
		t.Fatalf("got %d cells / %d summaries, want 2 / 2", len(out.Cells), len(out.Summaries))
	}
	if out.Cells[0].Adaptive != "blind" || out.Cells[1].Adaptive != "eot(draws=2)" {
		t.Errorf("cell adaptive labels = %q, %q", out.Cells[0].Adaptive, out.Cells[1].Adaptive)
	}
	if len(out.Gaps) != 1 || out.Gaps[0].Adaptive != "eot(draws=2)" {
		t.Fatalf("gaps = %+v, want one eot(draws=2) entry", out.Gaps)
	}
	if out.Gaps[0].TM != "TM-III" {
		t.Errorf("gap tm = %q, want TM-III", out.Gaps[0].TM)
	}
	if got := out.Gaps[0].AdaptiveRate - out.Gaps[0].BlindRate; out.Gaps[0].Gap != got {
		t.Errorf("gap arithmetic over HTTP: %v != %v", out.Gaps[0].Gap, got)
	}

	// Unknown and malformed adaptive modes are usage errors.
	for _, bad := range []string{"warp", "eot(draws=0)"} {
		resp, data := postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
			"attacks":  []string{"fgsm"},
			"adaptive": []string{bad},
			"cases":    []map[string]any{{"source": 3, "target": 1}},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("adaptive %q status %d, want 400: %s", bad, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), "adaptive") {
			t.Errorf("adaptive %q error does not mention the field: %s", bad, data)
		}
	}
}
