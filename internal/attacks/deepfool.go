package attacks

import (
	"context"
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// DeepFool is Moosavi-Dezfooli et al.'s minimal-perturbation untargeted
// attack: it iteratively linearizes the decision boundaries around the
// current point and steps just past the nearest one. A library extension
// beyond the paper's trio.
type DeepFool struct {
	// MaxIter bounds the linearization iterations.
	MaxIter int
	// Overshoot inflates the final step so the point crosses the boundary.
	Overshoot float64
	// Candidates restricts boundary search to the top-k runner-up classes
	// (0 means all classes) to bound the per-iteration gradient cost.
	Candidates int
}

// NewDeepFool constructs the attack with the canonical parameters
// (50 iterations, 2% overshoot, 10 candidate classes).
func NewDeepFool() *DeepFool {
	return &DeepFool{MaxIter: 50, Overshoot: 0.02, Candidates: 10}
}

// Name implements Attack.
func (d *DeepFool) Name() string { return spec.Format("deepfool", d.Params()) }

// Params implements Configurable.
func (d *DeepFool) Params() []Param {
	return []Param{
		spec.Int("iters", "maximum linearization iterations", &d.MaxIter, 1, maxSteps),
		spec.Float("overshoot", "boundary-crossing inflation", &d.Overshoot, 0, 10),
		spec.Int("candidates", "runner-up classes searched (0 = all)", &d.Candidates, 0, 1024),
	}
}

// Generate implements Attack. DeepFool is untargeted: the goal's Target
// must be Untargeted, and success means leaving the source class.
func (d *DeepFool) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if goal.IsTargeted() {
		return nil, fmt.Errorf("attacks: DeepFool is untargeted; use Goal.Target = Untargeted")
	}
	if d.MaxIter <= 0 {
		return nil, fmt.Errorf("attacks: DeepFool MaxIter must be positive")
	}

	e := begin(ctx, d.Name())
	adv := x.Clone()
	iters := 0
	// classGrad extracts the gradient of a single logit.
	classGrad := func(img *tensor.Tensor, class int) ([]float64, *tensor.Tensor) {
		logits, g := c.GradFromLogits(img, func(z []float64) []float64 {
			dz := make([]float64, len(z))
			dz[class] = 1
			return dz
		})
		e.query(1)
		return logits, g
	}

	for it := 0; it < d.MaxIter && !e.halt(); it++ {
		iters = it + 1
		logits, gradSrc := classGrad(adv, goal.Source)
		pred := 0
		for i := range logits {
			if logits[i] > logits[pred] {
				pred = i
			}
		}
		if pred != goal.Source {
			e.iterDone()
			break
		}
		// Candidate classes: nearest runner-up logits.
		var order []int
		for i := range logits {
			if i != goal.Source {
				order = append(order, i)
			}
		}
		// Sort by logit descending (closest boundaries first, roughly).
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && logits[order[j]] > logits[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		if d.Candidates > 0 && len(order) > d.Candidates {
			order = order[:d.Candidates]
		}

		// Find the nearest linearized boundary.
		bestRatio := math.Inf(1)
		var bestW *tensor.Tensor
		var bestF float64
		for _, k := range order {
			_, gradK := classGrad(adv, k)
			w := tensor.Sub(gradK, gradSrc)
			fDiff := logits[k] - logits[goal.Source]
			wNorm := w.L2Norm()
			if wNorm < 1e-12 {
				continue
			}
			ratio := math.Abs(fDiff) / wNorm
			if ratio < bestRatio {
				bestRatio = ratio
				bestW = w
				bestF = fDiff
			}
		}
		if bestW == nil {
			e.iterDone()
			break
		}
		// Step just past the boundary: r = |f|/‖w‖² · w.
		wNorm := bestW.L2Norm()
		scale := (math.Abs(bestF) + 1e-6) / (wNorm * wNorm)
		adv.AddScaled((1+d.Overshoot)*scale, bestW)
		clampUnit(adv)
		e.iterDone()
	}
	return e.finish(c, x, adv, goal, iters), nil
}
