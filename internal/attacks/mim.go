package attacks

import (
	"context"
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// MIM is the momentum iterative method (Dong et al., CVPR 2018): BIM with
// an accumulated, L1-normalized gradient momentum, which stabilizes the
// update direction and transfers better across models. A library extension
// beyond the paper's trio; particularly relevant here because momentum
// also helps push through the gradient attenuation of smoothing filters.
type MIM struct {
	// Epsilon is the total L∞ budget; Alpha the per-step size.
	Epsilon, Alpha float64
	// Steps is the iteration count; Decay the momentum factor μ.
	Steps int
	Decay float64
	// EarlyStop stops once the goal is achieved.
	EarlyStop bool
}

// NewMIM constructs the attack with the canonical schedule
// (eps=8/255, alpha=eps/10, 20 steps, μ=1).
func NewMIM() *MIM {
	eps := 8.0 / 255
	return &MIM{Epsilon: eps, Alpha: eps / 10, Steps: 20, Decay: 1.0, EarlyStop: true}
}

// Name implements Attack.
func (m *MIM) Name() string { return spec.Format("mim", m.Params()) }

// Params implements Configurable.
func (m *MIM) Params() []Param {
	return []Param{
		spec.Float("eps", "total L∞ budget", &m.Epsilon, spec.MinPositive, 1),
		spec.Float("alpha", "per-step size", &m.Alpha, spec.MinPositive, 1),
		spec.Int("steps", "iteration count", &m.Steps, 1, maxSteps),
		spec.Float("decay", "momentum factor μ", &m.Decay, 0, 10),
		spec.Bool("early", "stop once the goal is achieved", &m.EarlyStop),
	}
}

// Generate implements Attack.
func (m *MIM) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if m.Epsilon <= 0 || m.Alpha <= 0 || m.Steps <= 0 || m.Decay < 0 {
		return nil, fmt.Errorf("attacks: MIM parameters must be positive (decay non-negative)")
	}
	e := begin(ctx, m.Name())
	adv := x.Clone()
	momentum := tensor.New(x.Shape()...)
	iters := 0
	for i := 0; i < m.Steps && !e.halt(); i++ {
		iters = i + 1
		var grad *tensor.Tensor
		var dir float64
		if goal.IsTargeted() {
			_, grad = CELossGrad(c, adv, goal.Target)
			dir = -1
		} else {
			_, grad = CELossGrad(c, adv, goal.Source)
			dir = +1
		}
		e.query(1)
		// g_{t+1} = μ·g_t + grad/‖grad‖₁
		l1 := grad.L1Norm()
		if l1 > 0 {
			momentum.ScaleInPlace(m.Decay)
			momentum.AddScaled(1/l1, grad)
		}
		adv.AddScaled(dir*m.Alpha, tensor.SignOf(momentum))
		clampBall(adv, x, m.Epsilon)
		clampUnit(adv)
		if m.EarlyStop {
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
