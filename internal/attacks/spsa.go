package attacks

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// SPSA is a gradient-free attack using simultaneous perturbation
// stochastic approximation (Uesato et al., ICML 2018): the input gradient
// is estimated from paired forward evaluations along random ±1 directions,
// then used for projected sign steps. It needs only Logits access — a true
// black-box attack, included because the paper's threat taxonomy
// explicitly covers black-box adversaries.
type SPSA struct {
	// Epsilon is the L∞ budget; Alpha the per-step size.
	Epsilon, Alpha float64
	// Steps is the number of optimization steps; Samples the number of
	// random-direction pairs averaged per gradient estimate.
	Steps, Samples int
	// Delta is the finite-difference probe radius.
	Delta float64
	// Seed drives the random directions.
	Seed uint64
}

// NewSPSA constructs the attack with a moderate query budget
// (eps=8/255, 40 steps × 16 direction pairs).
func NewSPSA() *SPSA {
	eps := 8.0 / 255
	return &SPSA{Epsilon: eps, Alpha: eps / 8, Steps: 40, Samples: 16, Delta: 0.01, Seed: 3}
}

// Name implements Attack.
func (s *SPSA) Name() string { return spec.Format("spsa", s.Params()) }

// Params implements Configurable.
func (s *SPSA) Params() []Param {
	return []Param{
		spec.Float("eps", "total L∞ budget", &s.Epsilon, spec.MinPositive, 1),
		spec.Float("alpha", "per-step size", &s.Alpha, spec.MinPositive, 1),
		spec.Int("steps", "optimization steps", &s.Steps, 1, maxSteps),
		spec.Int("samples", "direction pairs per gradient estimate", &s.Samples, 1, 4096),
		spec.Float("delta", "finite-difference probe radius", &s.Delta, spec.MinPositive, 1),
		spec.Uint("seed", "random-direction seed", &s.Seed),
	}
}

// Generate implements Attack. Budget granularity is one optimization
// step (2×Samples forward queries per check).
func (s *SPSA) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if s.Epsilon <= 0 || s.Alpha <= 0 || s.Steps <= 0 || s.Samples <= 0 || s.Delta <= 0 {
		return nil, fmt.Errorf("attacks: SPSA parameters must be positive")
	}
	e := begin(ctx, s.Name())
	rng := mathx.NewRNG(s.Seed)
	n := x.Len()
	adv := x.Clone()
	iters := 0

	// margin returns the quantity to *descend*: targeted → loss of the
	// target class; untargeted → negative loss of the source class.
	margin := func(img *tensor.Tensor) float64 {
		logits := c.Logits(img)
		e.query(1)
		logp := logSoftmax(logits)
		if goal.IsTargeted() {
			return -logp[goal.Target]
		}
		return logp[goal.Source]
	}

	dir := tensor.New(x.Shape()...)
	probe := tensor.New(x.Shape()...)
	grad := tensor.New(x.Shape()...)
	for i := 0; i < s.Steps && !e.halt(); i++ {
		iters = i + 1
		grad.Zero()
		for k := 0; k < s.Samples; k++ {
			// Rademacher ±1 direction.
			dd := dir.Data()
			for j := 0; j < n; j++ {
				if rng.Bool(0.5) {
					dd[j] = 1
				} else {
					dd[j] = -1
				}
			}
			probe.CopyFrom(adv)
			probe.AddScaled(s.Delta, dir)
			probe.Clamp01()
			fPlus := margin(probe)
			probe.CopyFrom(adv)
			probe.AddScaled(-s.Delta, dir)
			probe.Clamp01()
			fMinus := margin(probe)
			// g ≈ (f+ − f−)/(2δ) · sign-direction (element-wise inverse of
			// ±1 is itself).
			coeff := (fPlus - fMinus) / (2 * s.Delta * float64(s.Samples))
			grad.AddScaled(coeff, dir)
		}
		adv.AddScaled(-s.Alpha, tensor.SignOf(grad))
		clampBall(adv, x, s.Epsilon)
		clampUnit(adv)
		pred, _ := Predict(c, adv)
		e.query(1)
		if goal.achieved(pred) {
			e.iterDone()
			break
		}
		e.iterDone()
	}
	return e.finish(c, x, adv, goal, iters), nil
}

// logSoftmax is a local stable log-softmax (avoids importing nn here).
func logSoftmax(logits []float64) []float64 {
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for _, v := range logits {
		sum += math.Exp(v - maxV)
	}
	logSum := maxV + math.Log(sum)
	out := make([]float64, len(logits))
	for i, v := range logits {
		out[i] = v - logSum
	}
	return out
}
