package attacks

import (
	"context"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// PGD is projected gradient descent (Madry et al.): BIM with a random
// start inside the L∞ ball and optional restarts, the strongest standard
// first-order L∞ attack. A library extension beyond the paper's trio.
type PGD struct {
	Epsilon, Alpha float64
	Steps          int
	Restarts       int
	// Seed drives the random starts deterministically.
	Seed uint64
}

// NewPGD constructs the attack with eps=8/255, alpha=eps/8, 20 steps and
// 2 restarts.
func NewPGD() *PGD {
	eps := 8.0 / 255
	return &PGD{Epsilon: eps, Alpha: eps / 8, Steps: 20, Restarts: 2, Seed: 1}
}

// Name implements Attack.
func (p *PGD) Name() string { return spec.Format("pgd", p.Params()) }

// Params implements Configurable.
func (p *PGD) Params() []Param {
	return []Param{
		spec.Float("eps", "total L∞ budget", &p.Epsilon, spec.MinPositive, 1),
		spec.Float("alpha", "per-step size", &p.Alpha, spec.MinPositive, 1),
		spec.Int("steps", "iterations per restart", &p.Steps, 1, maxSteps),
		spec.Int("restarts", "random restarts", &p.Restarts, 1, 1000),
		spec.Uint("seed", "random-start seed", &p.Seed),
	}
}

// Generate implements Attack. Result.Iterations reports the winning
// restart's step count; budget iteration limits apply to the run total
// across restarts.
func (p *PGD) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if p.Epsilon <= 0 || p.Alpha <= 0 || p.Steps <= 0 || p.Restarts <= 0 {
		return nil, fmt.Errorf("attacks: PGD parameters must be positive")
	}
	e := begin(ctx, p.Name())
	rng := mathx.NewRNG(p.Seed)
	var best *Result
	for r := 0; r < p.Restarts && !e.halt(); r++ {
		adv := x.Clone()
		// Random start inside the ball.
		for i, v := range adv.Data() {
			adv.Data()[i] = mathx.Clamp01(v + rng.Range(-p.Epsilon, p.Epsilon))
		}
		iters := 0
		for i := 0; i < p.Steps && !e.halt(); i++ {
			iters = i + 1
			var grad *tensor.Tensor
			var step float64
			if goal.IsTargeted() {
				_, grad = CELossGrad(c, adv, goal.Target)
				step = -p.Alpha
			} else {
				_, grad = CELossGrad(c, adv, goal.Source)
				step = +p.Alpha
			}
			e.query(1)
			adv.AddScaled(step, tensor.SignOf(grad))
			clampBall(adv, x, p.Epsilon)
			clampUnit(adv)
			e.iterDone()
		}
		res := e.finish(c, x, adv, goal, iters)
		if best == nil || (res.Success && !best.Success) ||
			(res.Success == best.Success && res.Confidence > best.Confidence) {
			best = res
		}
		if best.Success && goal.IsTargeted() && best.Confidence > 0.9 {
			break // strong enough; save budget
		}
	}
	if best == nil {
		// Halted before the first restart began; report the clean image.
		return e.finish(c, x, x.Clone(), goal, 0), nil
	}
	best.Queries = e.queries
	best.Truncated = e.truncated
	return best, nil
}
