package attacks

import (
	"context"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// cancelAfterClassifier cancels a context once the classifier has served
// a fixed number of evaluations — a deterministic way to cancel an attack
// mid-run. Embedding the interface (not a concrete type) also strips the
// optional LogitsBatcher, so batched attacks exercise their fallback path
// where every query routes through Logits.
type cancelAfterClassifier struct {
	inner  Classifier
	cancel context.CancelFunc
	after  int
	count  int
}

func (cc *cancelAfterClassifier) bump() {
	cc.count++
	if cc.count == cc.after {
		cc.cancel()
	}
}

func (cc *cancelAfterClassifier) NumClasses() int { return cc.inner.NumClasses() }

func (cc *cancelAfterClassifier) Logits(x *tensor.Tensor) []float64 {
	cc.bump()
	return cc.inner.Logits(x)
}

func (cc *cancelAfterClassifier) GradFromLogits(x *tensor.Tensor, dfn func([]float64) []float64) ([]float64, *tensor.Tensor) {
	cc.bump()
	return cc.inner.GradFromLogits(x, dfn)
}

// goalFor returns the invariants-test goal for a registry attack.
func goalFor(t *testing.T, name string, label int) Goal {
	t.Helper()
	switch name {
	case "deepfool", "onepixel", "spsa":
		return Goal{Source: label, Target: Untargeted}
	case "lbfgs", "fgsm", "bim", "mim", "pgd", "cw", "jsma":
		return Goal{Source: label, Target: 1}
	default:
		t.Fatalf("no goal defined for attack %q — extend this test", name)
		return Goal{}
	}
}

// TestAttackCancellationMidRun cancels every registry attack partway
// through its run (after a handful of classifier evaluations) and checks
// the v2 contract: no error, a well-formed best-so-far Result flagged
// Truncated, and a prompt stop — strictly fewer queries than the
// uncancelled run spends.
func TestAttackCancellationMidRun(t *testing.T) {
	base := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]

	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			goal := goalFor(t, name, label)
			atk, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			full, err := atk.Generate(context.Background(), base, clean, goal)
			if err != nil {
				t.Fatal(err)
			}
			if full.Truncated {
				t.Fatal("unbudgeted background run reported Truncated")
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cc := &cancelAfterClassifier{inner: base, cancel: cancel, after: 3}
			if name == "fgsm" {
				// Single-step FGSM has no mid-run boundary to cancel at;
				// cancel before it starts instead.
				cancel()
			}
			res, err := atk.Generate(ctx, cc, clean, goal)
			if err != nil {
				t.Fatalf("cancelled run errored instead of returning best-so-far: %v", err)
			}
			if !res.Truncated {
				t.Fatal("cancelled run not flagged Truncated")
			}
			if res.Queries >= full.Queries {
				t.Fatalf("cancelled run spent %d queries, full run %d — no early stop", res.Queries, full.Queries)
			}
			if res.Adversarial == nil || res.Adversarial.Min() < 0 || res.Adversarial.Max() > 1 {
				t.Fatal("truncated result is not a valid image")
			}
			if !tensor.EqualWithin(tensor.Add(clean, res.Noise), res.Adversarial, 1e-9) {
				t.Fatal("truncated result broke the Noise invariant")
			}
		})
	}
}

// TestAttackBudgetExhaustion runs every multi-iteration registry attack
// under Budget{MaxIters: 1} and checks it stops at the first iteration
// boundary with Truncated set. FGSM is single-step (it can complete
// within any iteration budget), so it is exercised with an
// already-cancelled context instead.
func TestAttackBudgetExhaustion(t *testing.T) {
	c := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]

	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			goal := goalFor(t, name, label)
			atk, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "fgsm" {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				res, err := atk.Generate(ctx, c, clean, goal)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Truncated || res.Iterations != 0 {
					t.Fatalf("pre-cancelled FGSM: truncated=%v iters=%d", res.Truncated, res.Iterations)
				}
				if res.Noise.LInfNorm() != 0 {
					t.Fatal("pre-cancelled FGSM still perturbed the image")
				}
				return
			}
			full, err := atk.Generate(context.Background(), c, clean, goal)
			if err != nil {
				t.Fatal(err)
			}
			res, err := atk.Generate(WithBudget(context.Background(), Budget{MaxIters: 1}), c, clean, goal)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated {
				t.Fatal("budget-exhausted run not flagged Truncated")
			}
			if res.Queries >= full.Queries {
				t.Fatalf("budgeted run spent %d queries, full run %d", res.Queries, full.Queries)
			}
			// L-BFGS delegates its loop to the solver and enforces MaxIters
			// at solve granularity; everything else stops after iteration 1.
			if name != "lbfgs" && res.Iterations > 1 {
				t.Fatalf("MaxIters=1 run reported %d iterations", res.Iterations)
			}
		})
	}
}

// TestAttackQueryBudget pins MaxQueries iteration-granularity semantics
// on BIM: the run stops at the first iteration boundary at or past the
// cap, so the overshoot is bounded by one iteration's query cost plus the
// final bookkeeping prediction.
func TestAttackQueryBudget(t *testing.T) {
	c := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]
	atk := &BIM{Epsilon: 0.1, Alpha: 0.005, Steps: 50, EarlyStop: false}

	const maxQ = 7
	res, err := atk.Generate(WithBudget(context.Background(), Budget{MaxQueries: maxQ}), c, clean,
		Goal{Source: label, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("query-capped run not flagged Truncated")
	}
	// BIM without early stop spends 1 query per iteration + 1 in finish.
	if res.Queries < maxQ || res.Queries > maxQ+1 {
		t.Fatalf("Queries = %d, want %d or %d (iteration-granularity overshoot)", res.Queries, maxQ, maxQ+1)
	}
	if res.Iterations != maxQ {
		t.Fatalf("Iterations = %d, want %d", res.Iterations, maxQ)
	}
}

// TestAttackDeadlineBudget checks the Budget.Deadline axis: an expired
// deadline truncates immediately, leaving the clean image.
func TestAttackDeadlineBudget(t *testing.T) {
	c := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]
	ctx := WithBudget(context.Background(), Budget{Deadline: time.Now().Add(-time.Second)})
	res, err := NewBIM().Generate(ctx, c, clean, Goal{Source: label, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Iterations != 0 || res.Noise.LInfNorm() != 0 {
		t.Fatalf("expired deadline: truncated=%v iters=%d |noise|=%v",
			res.Truncated, res.Iterations, res.Noise.LInfNorm())
	}
}

// TestObserverSeesEveryIteration pins the Observer contract: one callback
// per completed optimizer iteration with monotone totals.
func TestObserverSeesEveryIteration(t *testing.T) {
	c := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]
	atk := &BIM{Epsilon: 0.05, Alpha: 0.005, Steps: 9, EarlyStop: false}

	var seen []Progress
	ctx := WithObserver(context.Background(), func(p Progress) { seen = append(seen, p) })
	res, err := atk.Generate(ctx, c, clean, Goal{Source: label, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Iterations {
		t.Fatalf("observer saw %d checkpoints, run did %d iterations", len(seen), res.Iterations)
	}
	for i, p := range seen {
		if p.Iterations != i+1 {
			t.Fatalf("checkpoint %d reports iteration %d", i, p.Iterations)
		}
		if p.Attack != atk.Name() {
			t.Fatalf("checkpoint attack = %q, want %q", p.Attack, atk.Name())
		}
		if i > 0 && p.Queries < seen[i-1].Queries {
			t.Fatal("observer queries not monotone")
		}
	}
}

// TestFAdeMLEtaQueryAccounting pins the eta<1 query invariant: rescaling
// adds exactly the one filtered prediction of the rescaled image (the
// historical implementation double-counted the base attack's queries).
func TestFAdeMLEtaQueryAccounting(t *testing.T) {
	c := testClassifier(t)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)
	label := fixtureLabel[gtsrb.ClassStop]
	goal := Goal{Source: label, Target: 1}
	filter := filters.NewLAP(8)
	mkBase := func() Attack { return &BIM{Epsilon: 0.1, Alpha: 0.01, Steps: 10, EarlyStop: false} }

	base, err := mkBase().Generate(context.Background(), FilteredClassifier{Inner: c, Pre: filter}, clean, goal)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := (&FAdeML{Base: mkBase(), Filter: filter, Eta: 0.5}).Generate(context.Background(), c, clean, goal)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Queries != base.Queries+1 {
		t.Fatalf("eta=0.5 queries = %d, want base %d + 1", scaled.Queries, base.Queries)
	}
}

// TestBudgetContextPlumbing covers the ctx carriers and Budget helpers.
func TestBudgetContextPlumbing(t *testing.T) {
	if !BudgetFrom(context.Background()).Unlimited() {
		t.Fatal("background context carries a budget")
	}
	b := Budget{MaxQueries: 10, MaxIters: 3}
	got := BudgetFrom(WithBudget(context.Background(), b))
	if got != b {
		t.Fatalf("BudgetFrom = %+v, want %+v", got, b)
	}
	if b.Unlimited() {
		t.Fatal("non-empty budget reported Unlimited")
	}
	if ObserverFrom(context.Background()) != nil {
		t.Fatal("background context carries an observer")
	}
	if ObserverFrom(WithObserver(context.Background(), func(Progress) {})) == nil {
		t.Fatal("observer lost in transit")
	}
}
