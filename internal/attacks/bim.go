package attacks

import (
	"context"
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// BIM is Kurakin et al.'s basic iterative method: repeated small FGSM
// steps, clipping after each step both into the L∞ ball of radius Epsilon
// around the original image and into the valid pixel range.
type BIM struct {
	// Epsilon is the total L∞ budget; Alpha the per-step size.
	Epsilon, Alpha float64
	// Steps is the iteration count.
	Steps int
	// EarlyStop stops as soon as the goal is achieved.
	EarlyStop bool
}

// NewBIM constructs the attack with the canonical schedule
// (eps=8/255, alpha=eps/8, 16 steps).
func NewBIM() *BIM {
	eps := 8.0 / 255
	return &BIM{Epsilon: eps, Alpha: eps / 8, Steps: 16, EarlyStop: true}
}

// Name implements Attack.
func (b *BIM) Name() string { return spec.Format("bim", b.Params()) }

// Params implements Configurable.
func (b *BIM) Params() []Param {
	return []Param{
		spec.Float("eps", "total L∞ budget", &b.Epsilon, spec.MinPositive, 1),
		spec.Float("alpha", "per-step size", &b.Alpha, spec.MinPositive, 1),
		spec.Int("steps", "iteration count", &b.Steps, 1, maxSteps),
		spec.Bool("early", "stop once the goal is achieved", &b.EarlyStop),
	}
}

// Generate implements Attack.
func (b *BIM) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if b.Epsilon <= 0 || b.Alpha <= 0 || b.Steps <= 0 {
		return nil, fmt.Errorf("attacks: BIM parameters must be positive (eps=%v alpha=%v steps=%d)",
			b.Epsilon, b.Alpha, b.Steps)
	}
	e := begin(ctx, b.Name())
	adv := x.Clone()
	iters := 0
	for i := 0; i < b.Steps && !e.halt(); i++ {
		iters = i + 1
		var grad *tensor.Tensor
		var step float64
		if goal.IsTargeted() {
			_, grad = CELossGrad(c, adv, goal.Target)
			step = -b.Alpha
		} else {
			_, grad = CELossGrad(c, adv, goal.Source)
			step = +b.Alpha
		}
		e.query(1)
		adv.AddScaled(step, tensor.SignOf(grad))
		clampBall(adv, x, b.Epsilon)
		clampUnit(adv)
		if b.EarlyStop {
			pred, _ := Predict(c, adv)
			e.query(1)
			if goal.achieved(pred) {
				e.iterDone()
				break
			}
		}
		e.iterDone()
	}
	return e.finish(c, x, adv, goal, iters), nil
}
