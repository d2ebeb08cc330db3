package attacks

import (
	"context"
	"fmt"

	"repro/internal/lbfgs"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// LBFGS is Szegedy et al.'s box-constrained L-BFGS attack, the first
// published adversarial-example method and one of the paper's three
// evaluated attacks. It minimizes
//
//	c·‖x* − x‖² + CE(f(x*), target)   subject to x* ∈ [0, 1]ⁿ
//
// and line-searches the trade-off constant c: starting from InitialC it
// halves c (weakening the distortion penalty) until the attack succeeds,
// then reports the first success — the minimal-distortion adversarial
// example among the tested penalties.
type LBFGS struct {
	// InitialC is the starting distortion weight.
	InitialC float64
	// CSteps is how many times c may be halved searching for success.
	CSteps int
	// MaxIter bounds L-BFGS iterations per c value.
	MaxIter int
}

// NewLBFGS constructs the attack with the defaults used throughout the
// experiments (c₀=10, 8 halvings, 60 iterations per solve).
func NewLBFGS() *LBFGS {
	return &LBFGS{InitialC: 10, CSteps: 8, MaxIter: 60}
}

// Name implements Attack.
func (l *LBFGS) Name() string { return spec.Format("lbfgs", l.Params()) }

// Params implements Configurable.
func (l *LBFGS) Params() []Param {
	return []Param{
		spec.Float("c", "starting distortion weight", &l.InitialC, spec.MinPositive, 1e6),
		spec.Int("csteps", "distortion-weight halvings searched", &l.CSteps, 1, 64),
		spec.Int("iters", "L-BFGS iterations per c value", &l.MaxIter, 1, maxSteps),
	}
}

// Generate implements Attack. Untargeted goals are not supported: the
// formulation needs a target class (the paper's scenarios are targeted).
// Cancellation and budget reach down into the solver at L-BFGS-iteration
// granularity via the optimizer's Stop hook.
func (l *LBFGS) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if !goal.IsTargeted() {
		return nil, fmt.Errorf("attacks: L-BFGS attack requires a targeted goal")
	}
	if l.InitialC <= 0 || l.CSteps <= 0 || l.MaxIter <= 0 {
		return nil, fmt.Errorf("attacks: L-BFGS parameters must be positive")
	}

	n := x.Len()
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range upper {
		upper[i] = 1
	}
	xd := x.Data()

	e := begin(ctx, l.Name())
	iters := 0
	cWeight := l.InitialC
	var lastAdv *tensor.Tensor
	for step := 0; step < l.CSteps && !e.halt(); step++ {
		obj := func(z []float64, grad []float64) float64 {
			img := tensor.FromSlice(z, x.Shape()...)
			ceLoss, ceGrad := CELossGrad(c, img, goal.Target)
			e.query(1)
			dist := 0.0
			gd := ceGrad.Data()
			for i := range z {
				d := z[i] - xd[i]
				dist += d * d
				grad[i] = gd[i] + 2*cWeight*d
			}
			return ceLoss + cWeight*dist
		}
		res, err := lbfgs.Minimize(obj, append([]float64(nil), xd...), lbfgs.Config{
			MaxIter: l.MaxIter,
			Lower:   lower,
			Upper:   upper,
			GradTol: 1e-7,
			Stop:    e.halt,
		})
		if err != nil {
			return nil, fmt.Errorf("attacks: L-BFGS solve failed: %w", err)
		}
		iters += res.Iters
		e.iterBatch(res.Iters)
		adv := tensor.FromSlice(append([]float64(nil), res.X...), x.Shape()...)
		clampUnit(adv)
		lastAdv = adv
		pred, _ := Predict(c, adv)
		e.query(1)
		if goal.achieved(pred) {
			return e.finish(c, x, adv, goal, iters), nil
		}
		cWeight /= 2 // relax the distortion penalty and retry
	}
	if lastAdv == nil {
		// Halted before the first solve began; report the clean image.
		lastAdv = x.Clone()
	}
	// No success at any tested c; report the final attempt.
	return e.finish(c, x, lastAdv, goal, iters), nil
}
