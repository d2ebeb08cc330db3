package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/gtsrb"
)

// TestEvaluateResponseDigest pins /v1/evaluate's response body byte for
// byte over every axis of the grid: two attacks × blind/bpda/eot × TM-II/
// TM-III × two cases under the default detector, once through the
// deployed filter and once through the "none" and median overrides. That
// covers shared blind crafting, per-cell adaptive crafting, both delivery
// paths, the detection axis, the summaries and the gaps.
func TestEvaluateResponseDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("72-cell sweep skipped in -short")
	}
	s := New(servePipeline(t), Options{
		Workers:       2,
		MaxBatch:      4,
		MaxWait:       time.Millisecond,
		AttackWorkers: 2,
		AttackBudget:  attacks.Budget{MaxQueries: 60},
		AttackTimeout: 30 * time.Second,
		Render:        gtsrb.Canonical,
		Detector:      detect.Default(),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	base := func() map[string]any {
		return map[string]any{
			"attacks":  []string{"fgsm(eps=0.1)", "bim(eps=0.1,alpha=0.02,steps=10)"},
			"tms":      []string{"2", "3"},
			"adaptive": []string{"blind", "bpda", "eot(draws=2)"},
			"cases":    []map[string]any{{"source": 3, "target": 1}, {"source": 2}},
		}
	}
	overrides := base()
	overrides["filters"] = []string{"none", "median(r=1)"}
	for _, c := range []struct {
		name string
		body map[string]any
		want string
	}{
		{"deployed", base(), "00c33714bfacd204f76f15fc450805beb8ccc73f039810e68415e75389f1edbb"},
		{"overrides", overrides, "8ddacbe084a9741e16bd3f4aa9d80f3ee803219c4b71f0594033d45b2e8bf2bf"},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/evaluate", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, data)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: response digest %s, pinned %s — /v1/evaluate bytes moved", c.name, got, c.want)
		}
	}
}
