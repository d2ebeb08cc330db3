package attacks

import (
	"context"
	"fmt"

	"repro/internal/tensor"
)

// Goal describes what an attack should achieve.
type Goal struct {
	// Source is the image's true class (required by untargeted attacks and
	// used for success bookkeeping).
	Source int
	// Target is the class to force; Untargeted (-1) requests any
	// misclassification away from Source.
	Target int
}

// Untargeted is the Goal.Target sentinel for untargeted evasion.
const Untargeted = -1

// IsTargeted reports whether the goal names a specific target class.
func (g Goal) IsTargeted() bool { return g.Target != Untargeted }

// Validate checks the goal against a classifier's class count. Every
// Generate implementation calls it before touching the model, so a bad
// source or target class is always a returned error, never an
// out-of-range index deep inside an optimization loop.
func (g Goal) Validate(c Classifier) error {
	n := c.NumClasses()
	if g.Source < 0 || g.Source >= n {
		return fmt.Errorf("attacks: goal source class %d outside [0,%d)", g.Source, n)
	}
	if g.Target != Untargeted && (g.Target < 0 || g.Target >= n) {
		return fmt.Errorf("attacks: goal target class %d outside [0,%d)", g.Target, n)
	}
	if g.Target == g.Source {
		return fmt.Errorf("attacks: goal target equals source class %d", g.Source)
	}
	return nil
}

// achieved reports whether predicting pred satisfies the goal.
func (g Goal) achieved(pred int) bool {
	if g.IsTargeted() {
		return pred == g.Target
	}
	return pred != g.Source
}

// Result is the outcome of one attack run.
//
// Query-accounting invariant: Queries counts every classifier evaluation
// the run performed — each Logits/LogitsBatch row, each GradFromLogits
// call — including the final prediction recorded in PredClass/Confidence.
// Composite classifiers (EOT, FilteredClassifier) count as one query per
// call against the interface the attack was handed, regardless of how
// many inner network passes they fan out to.
type Result struct {
	// Adversarial is the crafted image (clamped to [0, 1]).
	Adversarial *tensor.Tensor
	// Noise is Adversarial − original.
	Noise *tensor.Tensor
	// Success reports whether the goal was met under the attacker's model.
	Success bool
	// PredClass and Confidence describe the attacker-model prediction on
	// Adversarial.
	PredClass  int
	Confidence float64
	// Iterations counts optimizer iterations; Queries counts classifier
	// evaluations per the invariant above.
	Iterations int
	Queries    int
	// Truncated reports that the run was cut short — context cancelled,
	// Budget exhausted, or deadline passed — and Adversarial is the best
	// candidate found up to that point rather than a full-budget optimum.
	Truncated bool
}

// Attack generates adversarial examples against a classifier.
//
// Generate honours ctx at iteration granularity: cancellation, an
// attached Budget (WithBudget) and deadlines stop the optimization loop
// at the next iteration boundary, and the run returns its best-so-far
// Result flagged Truncated instead of an error. With a background
// context and no budget, outputs are bit-identical to an unbudgeted run
// (pinned by the golden equivalence tests).
type Attack interface {
	// Name returns the attack's canonical, parseable spec string, e.g.
	// "pgd(eps=0.03,alpha=0.004,steps=20,restarts=2,seed=1)". For every
	// registry attack, Parse(Name()) rebuilds an identically configured
	// instance.
	Name() string
	// Generate crafts an adversarial example from the clean image x
	// pursuing goal. The input is never modified.
	Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error)
}

// clampUnit clips img into the valid pixel range in place.
func clampUnit(img *tensor.Tensor) { img.Clamp01() }
