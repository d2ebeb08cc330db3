package serve

import (
	"bytes"
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
	"repro/internal/pipeline"
)

// attackServer builds a server with the robustness endpoints wired the
// way cmd/fademl-serve does: canonical GTSRB rendering and a tight
// server-side budget so tests stay fast.
func attackServer(t testing.TB, budget attacks.Budget) *Server {
	t.Helper()
	if budget.Unlimited() {
		budget = attacks.Budget{MaxQueries: 200}
	}
	return New(servePipeline(t), Options{
		Workers:       2,
		MaxBatch:      4,
		MaxWait:       time.Millisecond,
		AttackWorkers: 2,
		AttackBudget:  budget,
		AttackTimeout: 30 * time.Second,
		Render:        gtsrb.Canonical,
		EvalCases:     []EvalCase{{Source: 3, Target: 1}},
	})
}

// TestServerAttackWithinBudget crafts one example server-side and checks
// the hard budget holds: the run's queries stay within the configured cap
// plus the documented one-iteration overshoot.
func TestServerAttackWithinBudget(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 25})
	defer s.Close()

	out, err := s.Attack(context.Background(), AttackRequest{
		Spec:   "bim(eps=0.1,alpha=0.01,steps=400,early=false)",
		Source: 2,
		Target: 1,
		TM:     pipeline.TM3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.AttackerResult
	if !res.Truncated {
		t.Fatalf("a 400-step attack under MaxQueries=25 must truncate: %+v", res)
	}
	// BIM without early stop costs 1 query per iteration + 1 final
	// prediction; iteration-granularity checks bound the overshoot.
	if res.Queries > 25+1 {
		t.Fatalf("server budget leaked: %d queries under a 25-query cap", res.Queries)
	}
	if out.Comparison.TMX != pipeline.TM3 {
		t.Fatalf("deployed measurement under %v, want TM3", out.Comparison.TMX)
	}
}

// TestServerAttackSpecErrors pins the input-validation surface.
func TestServerAttackSpecErrors(t *testing.T) {
	s := attackServer(t, attacks.Budget{})
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Attack(ctx, AttackRequest{Spec: "nope", Source: 2, Target: 1}); err == nil {
		t.Error("unknown attack spec accepted")
	}
	if _, err := s.Attack(ctx, AttackRequest{Spec: "bim(bogus=1)", Source: 2, Target: 1}); err == nil {
		t.Error("malformed attack spec accepted")
	}
	if _, err := s.Attack(ctx, AttackRequest{Spec: "fgsm", Source: 2, Target: 1, TM: pipeline.TM1}); err == nil {
		t.Error("TM1 attack accepted (no filtered delivery to measure)")
	}
	if _, err := s.Attack(ctx, AttackRequest{Spec: "fgsm", Source: 2, Target: 99}); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// TestServerAttackCancellable checks a client context cancels crafting:
// the call returns promptly with the context error or a truncated result.
func TestServerAttackCancellable(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 1 << 30})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	out, err := s.Attack(ctx, AttackRequest{
		Spec:   "bim(steps=10000,early=false)",
		Source: 2,
		Target: 1,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled attack took %v", elapsed)
	}
	if err == nil && !out.AttackerResult.Truncated {
		t.Fatal("pre-cancelled attack neither errored nor truncated")
	}
}

// TestServerEvaluateSweep runs a small spec × tm sweep end to end and
// checks cells, summaries and budget accounting line up.
func TestServerEvaluateSweep(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 60})
	defer s.Close()

	res, err := s.Evaluate(context.Background(), EvaluateRequest{
		Specs: []string{"fgsm(eps=0.05)", "bim(steps=5)"},
		TMs:   []pipeline.ThreatModel{pipeline.TM3},
		Cases: []EvalCase{{Source: 2, Target: 1}, {Source: 1, Target: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 { // 2 specs × 1 tm × 2 cases
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	if len(res.Summaries) != 2 {
		t.Fatalf("summaries = %d, want 2", len(res.Summaries))
	}
	for _, c := range res.Cells {
		if c.Queries <= 0 || c.Queries > 61 {
			t.Fatalf("cell queries %d outside the server budget", c.Queries)
		}
		if c.Attack == "" {
			t.Fatal("cell lacks attack name")
		}
	}
	for _, sm := range res.Summaries {
		if sm.Cells != 2 || sm.FoolingRate < 0 || sm.FoolingRate > 1 {
			t.Fatalf("bad summary %+v", sm)
		}
	}
}

// TestServerEvaluateEnforcesBudget pins the hard server-side budget on
// the evaluate crafting path (it historically applied only to /v1/attack):
// an oversized attack spec must truncate within the query cap per cell.
func TestServerEvaluateEnforcesBudget(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 30})
	defer s.Close()

	res, err := s.Evaluate(context.Background(), EvaluateRequest{
		Specs: []string{"bim(steps=100000,early=false)"},
		Cases: []EvalCase{{Source: 2, Target: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	if !cell.Truncated {
		t.Fatalf("100000-step attack under MaxQueries=30 did not truncate: %+v", cell)
	}
	if cell.Queries > 31 {
		t.Fatalf("evaluate crafting leaked past the server budget: %d queries", cell.Queries)
	}
}

// TestServerEvaluateDefaultsAndLimits covers the configured default cases
// and the grid cap.
func TestServerEvaluateDefaultsAndLimits(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 40})
	defer s.Close()
	ctx := context.Background()

	res, err := s.Evaluate(ctx, EvaluateRequest{Specs: []string{"fgsm"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 { // Options.EvalCases has one entry
		t.Fatalf("default cases produced %d cells", len(res.Cells))
	}

	if _, err := s.Evaluate(ctx, EvaluateRequest{}); err == nil {
		t.Error("evaluate without specs accepted")
	}
	big := make([]EvalCase, maxEvalCells+1)
	for i := range big {
		big[i] = EvalCase{Source: 2, Target: 1}
	}
	if _, err := s.Evaluate(ctx, EvaluateRequest{Specs: []string{"fgsm"}, Cases: big}); err == nil {
		t.Error("oversized evaluate grid accepted")
	}

	// An empty "tms" entry selects the attack threat model exactly as an
	// omitted "tms" does, also on a server whose default is TM-I.
	tm1 := New(servePipeline(t), Options{
		Workers:      1,
		DefaultTM:    pipeline.TM1,
		AttackBudget: attacks.Budget{MaxQueries: 40},
		Render:       gtsrb.Canonical,
		EvalCases:    []EvalCase{{Source: 3, Target: 1}},
	})
	defer tm1.Close()
	for _, body := range []string{`{"attacks": ["fgsm"]}`, `{"attacks": ["fgsm"], "tms": [""]}`} {
		w := httptest.NewRecorder()
		tm1.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
		var resp struct {
			Cells []struct {
				TM string `json:"tm"`
			} `json:"cells"`
		}
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || len(resp.Cells) != 1 || resp.Cells[0].TM != "TM-III" {
			t.Errorf("%s on a TM-I server = %d: %s", body, w.Code, w.Body.String())
		}
	}
}

// TestEvaluateValidatesBeforeCrafting pins up-front validation of the
// whole sweep: with an unbudgeted million-step first attack (averaged over
// 64 EOT draws, so it runs into the 5 s crafting timeout on any host), a
// bad second spec or a bad second case image must fail the request before
// the first cell crafts anything.
func TestEvaluateValidatesBeforeCrafting(t *testing.T) {
	s := New(servePipeline(t), Options{
		Workers:       2,
		MaxBatch:      4,
		MaxWait:       time.Millisecond,
		AttackWorkers: 1,
		AttackTimeout: 5 * time.Second,
		Render:        gtsrb.Canonical,
	})
	defer s.Close()
	slow, eot := "pgd(eps=0.1,steps=1000000)", []string{"eot(draws=64)"}
	nan := gtsrb.Canonical(1, 16).Clone()
	nan.Data()[7] = math.NaN()
	good := EvalCase{Source: 2, Target: 1}
	for name, req := range map[string]EvaluateRequest{
		"bad second spec": {Specs: []string{slow, "nosuch"}, Cases: []EvalCase{good}, Adaptive: eot},
		"bad second case": {Specs: []string{slow}, Cases: []EvalCase{good, {Source: 1, Target: 4, Image: nan}}, Adaptive: eot},
	} {
		start := time.Now()
		_, err := s.Evaluate(context.Background(), req)
		if elapsed := time.Since(start); err == nil || elapsed > time.Second {
			t.Errorf("%s: err = %v after %v, want an error in under 1 s", name, err, elapsed)
		}
	}
}

// TestAttackHTTPEndpoints exercises /v1/attack and /v1/evaluate through
// the HTTP handler, including the rendered-canonical-image path.
func TestAttackHTTPEndpoints(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 80})
	defer s.Close()
	h := s.Handler()

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	w := post("/v1/attack", `{"attack": "bim(steps=5)", "source": 2, "target": 1, "tm": "3", "adv": true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/attack = %d: %s", w.Code, w.Body.String())
	}
	var atkResp struct {
		Attack     string    `json:"attack"`
		Queries    int       `json:"queries"`
		DeployedTM string    `json:"deployed_tm"`
		AdvPixels  []float64 `json:"adv_pixels"`
		AdvShape   []int     `json:"adv_shape"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &atkResp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(atkResp.Attack, "bim(") || atkResp.Queries <= 0 {
		t.Fatalf("attack response %+v", atkResp)
	}
	if atkResp.DeployedTM != "TM-III" {
		t.Fatalf("deployed_tm = %q", atkResp.DeployedTM)
	}
	if len(atkResp.AdvShape) != 3 || len(atkResp.AdvPixels) == 0 {
		t.Fatalf("adv echo missing: shape %v, %d pixels", atkResp.AdvShape, len(atkResp.AdvPixels))
	}

	w = post("/v1/evaluate", `{"attacks": ["fgsm(eps=0.05)"], "tms": ["3"], "cases": [{"source": 2, "target": 1}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/evaluate = %d: %s", w.Code, w.Body.String())
	}
	var evalResp struct {
		Cells []struct {
			Attack string `json:"attack"`
			TM     string `json:"tm"`
			Fooled bool   `json:"fooled"`
		} `json:"cells"`
		Summaries []struct {
			FoolingRate float64 `json:"fooling_rate"`
			TM          string  `json:"tm"`
		} `json:"summaries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &evalResp); err != nil {
		t.Fatal(err)
	}
	if len(evalResp.Cells) != 1 || len(evalResp.Summaries) != 1 {
		t.Fatalf("evaluate response %+v", evalResp)
	}
	if evalResp.Cells[0].TM != "TM-III" || evalResp.Summaries[0].TM != "TM-III" {
		t.Fatalf("wire threat models wrong: %+v", evalResp)
	}

	// Error surfaces: bad spec is a 400, GET is a 405.
	if w := post("/v1/attack", `{"attack": "nope", "source": 2, "target": 1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/evaluate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/evaluate = %d", rec.Code)
	}
}

// TestAttackEndpointsDisabled covers AttackWorkers < 0.
func TestAttackEndpointsDisabled(t *testing.T) {
	s := New(servePipeline(t), Options{Workers: 1, AttackWorkers: -1})
	defer s.Close()
	if _, err := s.Attack(context.Background(), AttackRequest{Spec: "fgsm", Source: 2, Target: 1}); err != ErrAttacksDisabled {
		t.Fatalf("disabled attack err = %v", err)
	}
}

// TestServerCloseAbortsAttack checks shutdown cancels an in-flight
// crafting job instead of blocking Close behind it.
func TestServerCloseAbortsAttack(t *testing.T) {
	s := attackServer(t, attacks.Budget{MaxQueries: 1 << 30})

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		// A huge attack that only shutdown can stop.
		out, err := s.Attack(context.Background(), AttackRequest{
			Spec:   "bim(steps=1000000,early=false)",
			Source: 2,
			Target: 1,
		})
		if err == nil && !out.AttackerResult.Truncated {
			t.Error("shutdown neither errored nor truncated the attack")
		}
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the job acquire its slot
	s.Close()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("attack job survived server shutdown")
	}
}
