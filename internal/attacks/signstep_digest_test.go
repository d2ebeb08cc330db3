package attacks

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/filters"
	"repro/internal/gtsrb"
)

// signStepDigest is the pinned SHA-256 of every sign-step run
// TestSignStepDigest makes. It was recorded on amd64; math.Exp takes an
// FMA path when the CPU has one, so a CPU without FMA reads other bits.
const signStepDigest = "5a9130c3f7ac45e0f7fb053e25eabd443db309aa3c94506301526bec0f3422e7"

// runDigest hashes one run bit for bit: its label, then every number as
// the little-endian Float64bits of its float64 value.
type runDigest struct{ h hash.Hash }

func (d runDigest) nums(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.h.Write(buf[:])
	}
}

func (d runDigest) result(label string, r *Result) {
	d.nums(float64(len(label)))
	d.h.Write([]byte(label))
	d.nums(r.Adversarial.Data()...)
	truncated := 0.0
	if r.Truncated {
		truncated = 1
	}
	d.nums(float64(r.Queries), float64(r.Iterations), float64(r.PredClass), r.Confidence, truncated)
}

// TestSignStepDigest pins the projected sign-step family — fgsm, bim, pgd,
// mim, spsa and the FAdeML Eq. 3 trace — on the paths the golden fixture
// does not reach: both goals, the early-stop exit, PGD's restart break,
// runs truncated by a query budget, and the trace itself. Each attack runs
// at its default and at a budget large enough to succeed, on both goals,
// unbudgeted and under Budget{MaxQueries: 7}.
func TestSignStepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sign attack 8 times; not a -short test")
	}
	c := testClassifier(t)
	x, label := canonical(t, gtsrb.ClassStop)
	goals := []struct {
		name string
		goal Goal
	}{
		{"targeted", Goal{Source: label, Target: 1}},
		{"untargeted", Goal{Source: label, Target: Untargeted}},
	}
	budgets := []struct {
		name string
		b    Budget
	}{
		{"unbudgeted", Budget{}},
		{"q7", Budget{MaxQueries: 7}},
	}
	specs := []string{
		"fgsm", "fgsm(eps=0.5)",
		"bim", "bim(eps=0.5,alpha=0.05)",
		"pgd", "pgd(eps=0.5,alpha=0.05)",
		"mim", "mim(eps=0.5,alpha=0.05)",
		"spsa", "spsa(eps=0.5,alpha=0.05)",
	}

	all := runDigest{sha256.New()}
	runs := map[string]*Result{}
	for _, s := range specs {
		for _, g := range goals {
			for _, b := range budgets {
				atk, err := Parse(s)
				if err != nil {
					t.Fatal(err)
				}
				ctx := WithBudget(context.Background(), b.b)
				res, err := atk.Generate(ctx, c, x, g.goal)
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				label := fmt.Sprintf("%s/%s/%s", s, g.name, b.name)
				runs[label] = res
				all.result(label, res)
			}
		}
	}

	f := &FAdeML{Base: NewBIM(), Filter: filters.NewLAP(8), Eta: 0.5}
	for _, b := range budgets {
		ctx := WithBudget(context.Background(), b.b)
		res, trace, err := f.GenerateWithTrace(ctx, c, x, goals[0].goal, 12, 0.02, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		label := "trace/" + b.name
		runs[label] = res
		all.result(label, res)
		all.nums(float64(len(trace.Steps)))
		all.nums(trace.Steps...)
	}

	// The digest covers the paths it claims to: the early-stop exit, PGD's
	// restart break and budget truncation.
	for _, label := range []string{"bim(eps=0.5,alpha=0.05)/targeted/unbudgeted", "mim(eps=0.5,alpha=0.05)/targeted/unbudgeted"} {
		if r := runs[label]; r.Iterations != 2 || !r.Success {
			t.Errorf("%s: %d iterations (success %v), want the early stop at step 2", label, r.Iterations, r.Success)
		}
	}
	if r := runs["pgd(eps=0.5,alpha=0.05)/targeted/unbudgeted"]; r.Queries != 21 {
		t.Errorf("pgd targeted spent %d queries, want the restart break at 21", r.Queries)
	}
	for _, label := range []string{"bim/targeted/q7", "pgd/untargeted/q7", "mim/targeted/q7", "spsa/untargeted/q7", "trace/q7"} {
		if !runs[label].Truncated {
			t.Errorf("%s: not truncated by the 7-query budget", label)
		}
	}

	if got := hex.EncodeToString(all.h.Sum(nil)); got != signStepDigest {
		t.Errorf("sign-step digest %s, pinned %s — a sign attack's bits moved", got, signStepDigest)
	}
}
