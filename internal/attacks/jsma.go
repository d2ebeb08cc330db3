package attacks

import (
	"context"
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// JSMA is Papernot et al.'s Jacobian-based saliency map attack: a greedy
// L0 attack that repeatedly perturbs the single pixel whose saliency —
// gradient toward the target class combined with gradient away from all
// others — is largest. A library extension beyond the paper's trio.
type JSMA struct {
	// Theta is the per-step pixel change (positive values brighten).
	Theta float64
	// MaxPixelFrac bounds the fraction of features that may be modified.
	MaxPixelFrac float64
}

// NewJSMA constructs the attack with theta=0.2 and a 10% feature budget.
func NewJSMA() *JSMA { return &JSMA{Theta: 0.2, MaxPixelFrac: 0.10} }

// Name implements Attack.
func (j *JSMA) Name() string { return spec.Format("jsma", j.Params()) }

// Params implements Configurable.
func (j *JSMA) Params() []Param {
	return []Param{
		spec.Float("theta", "per-step pixel change (negative darkens; 0 is rejected at Generate)", &j.Theta, -1, 1),
		spec.Float("frac", "fraction of features that may be modified", &j.MaxPixelFrac, spec.MinPositive, 1),
	}
}

// Generate implements Attack. JSMA is targeted.
func (j *JSMA) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if !goal.IsTargeted() {
		return nil, fmt.Errorf("attacks: JSMA requires a targeted goal")
	}
	if j.Theta == 0 || j.MaxPixelFrac <= 0 {
		return nil, fmt.Errorf("attacks: JSMA theta and budget must be non-zero")
	}

	e := begin(ctx, j.Name())
	adv := x.Clone()
	n := adv.Len()
	budget := int(float64(n) * j.MaxPixelFrac)
	if budget < 1 {
		budget = 1
	}
	modified := make(map[int]bool)
	iters := 0

	for step := 0; step < budget && !e.halt(); step++ {
		iters = step + 1
		pred, _ := Predict(c, adv)
		e.query(1)
		if goal.achieved(pred) {
			e.iterDone()
			break
		}
		// dZ_target/dx and d(sum of other logits)/dx in two backward passes.
		_, gradTarget := c.GradFromLogits(adv, func(z []float64) []float64 {
			d := make([]float64, len(z))
			d[goal.Target] = 1
			return d
		})
		_, gradOthers := c.GradFromLogits(adv, func(z []float64) []float64 {
			d := make([]float64, len(z))
			for i := range d {
				if i != goal.Target {
					d[i] = 1
				}
			}
			return d
		})
		e.query(2)

		// Saliency: want target gradient positive and others negative
		// (for positive theta). Pick the best unmodified, unsaturated pixel.
		bestIdx, bestScore := -1, 0.0
		ad := adv.Data()
		gt, go_ := gradTarget.Data(), gradOthers.Data()
		for i := 0; i < n; i++ {
			if modified[i] {
				continue
			}
			if j.Theta > 0 && ad[i] >= 1-1e-9 {
				continue
			}
			if j.Theta < 0 && ad[i] <= 1e-9 {
				continue
			}
			a, b := gt[i], go_[i]
			if j.Theta < 0 {
				a, b = -a, -b
			}
			if a <= 0 || b >= 0 {
				continue
			}
			if score := a * math.Abs(b); score > bestScore {
				bestScore, bestIdx = score, i
			}
		}
		if bestIdx < 0 {
			// Saliency map exhausted: fall back to the strongest raw
			// target-gradient pixel so the attack keeps making progress.
			for i := 0; i < n; i++ {
				if modified[i] {
					continue
				}
				if score := math.Abs(gt[i]); score > bestScore {
					bestScore, bestIdx = score, i
				}
			}
			if bestIdx < 0 {
				e.iterDone()
				break
			}
			if gt[bestIdx] > 0 {
				ad[bestIdx] = math.Min(1, ad[bestIdx]+math.Abs(j.Theta))
			} else {
				ad[bestIdx] = math.Max(0, ad[bestIdx]-math.Abs(j.Theta))
			}
		} else {
			ad[bestIdx] = math.Min(1, math.Max(0, ad[bestIdx]+j.Theta))
		}
		modified[bestIdx] = true
		e.iterDone()
	}
	return e.finish(c, x, adv, goal, iters), nil
}
