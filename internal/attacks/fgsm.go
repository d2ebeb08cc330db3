package attacks

import (
	"context"
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// FGSM is Goodfellow et al.'s fast gradient sign method: one step of size
// Epsilon along the sign of the input gradient (descending the target
// loss for targeted goals, ascending the source loss for untargeted ones).
type FGSM struct {
	// Epsilon is the L∞ step size in pixel units ([0, 1] scale).
	Epsilon float64
}

// NewFGSM constructs the attack with the repository's default budget
// (8/255, imperceptible on the synthetic signs).
func NewFGSM() *FGSM { return &FGSM{Epsilon: 8.0 / 255} }

// Name implements Attack.
func (f *FGSM) Name() string { return spec.Format("fgsm", f.Params()) }

// Params implements Configurable.
func (f *FGSM) Params() []Param {
	return []Param{
		spec.Float("eps", "L∞ step size in [0,1] pixel units", &f.Epsilon, spec.MinPositive, 1),
	}
}

// Generate implements Attack.
func (f *FGSM) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if f.Epsilon <= 0 {
		return nil, fmt.Errorf("attacks: FGSM epsilon %v must be positive", f.Epsilon)
	}
	e := begin(ctx, f.Name())
	adv := x.Clone()
	iters := 0
	if !e.halt() {
		var grad *tensor.Tensor
		var step float64
		if goal.IsTargeted() {
			_, grad = CELossGrad(c, x, goal.Target)
			step = -f.Epsilon // descend toward the target class
		} else {
			_, grad = CELossGrad(c, x, goal.Source)
			step = +f.Epsilon // ascend away from the source class
		}
		e.query(1)
		adv.AddScaled(step, tensor.SignOf(grad))
		clampUnit(adv)
		e.iterDone()
		iters = 1
	}
	return e.finish(c, x, adv, goal, iters), nil
}
