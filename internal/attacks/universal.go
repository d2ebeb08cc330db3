package attacks

import (
	"context"
	"fmt"

	"repro/internal/tensor"
)

// UniversalResult is the outcome of crafting a universal adversarial
// perturbation: a single noise pattern applied unchanged to every input.
type UniversalResult struct {
	// Noise is the universal perturbation (add to any image, then clamp).
	Noise *tensor.Tensor
	// FoolingRate is the fraction of the crafting set whose prediction the
	// perturbation changes (or redirects to the target).
	FoolingRate float64
	// Epochs actually run before reaching the desired rate.
	Epochs int
	// Queries counts classifier evaluations, per the Result invariant.
	Queries int
	// Truncated reports the crafting loop was cut short by context
	// cancellation or budget exhaustion; Noise is the best-so-far pattern.
	Truncated bool
}

// Universal crafts a universal adversarial perturbation in the spirit of
// Moosavi-Dezfooli et al. (CVPR 2017), using iterative FGSM-style updates
// aggregated over a crafting set under an L∞ budget. With a targeted goal
// it becomes the "whole-stream payload" the paper's Fig. 6 applies: one
// perturbation pushing every sign toward the scenario's target class.
type Universal struct {
	// Epsilon is the L∞ budget of the universal noise.
	Epsilon float64
	// StepSize is the per-image gradient-sign step folded into the noise.
	StepSize float64
	// Epochs is the number of passes over the crafting set.
	Epochs int
	// TargetRate stops early once the fooling rate reaches it.
	TargetRate float64
}

// NewUniversal constructs the crafting procedure with a 10/255 budget.
func NewUniversal() *Universal {
	return &Universal{Epsilon: 10.0 / 255, StepSize: 2.0 / 255, Epochs: 5, TargetRate: 0.8}
}

// Name identifies the procedure.
func (u *Universal) Name() string { return fmt.Sprintf("universal(eps=%g)", u.Epsilon) }

// Craft builds a universal perturbation over the crafting images. goal
// semantics: targeted goals push every image toward goal.Target;
// untargeted goals push each image away from its own current prediction
// (goal.Source is ignored per-image, so only the target side of the goal
// is validated). Cancellation and budget are honoured at per-image
// granularity; a truncated run returns the best-so-far noise pattern
// flagged Truncated.
func (u *Universal) Craft(ctx context.Context, c Classifier, imgs []*tensor.Tensor, goal Goal) (*UniversalResult, error) {
	if len(imgs) == 0 {
		return nil, fmt.Errorf("attacks: Universal.Craft needs a non-empty crafting set")
	}
	if u.Epsilon <= 0 || u.StepSize <= 0 || u.Epochs <= 0 {
		return nil, fmt.Errorf("attacks: Universal parameters must be positive")
	}
	if goal.IsTargeted() {
		if goal.Target < 0 || goal.Target >= c.NumClasses() {
			return nil, fmt.Errorf("attacks: Universal target class %d out of range", goal.Target)
		}
	}
	e := begin(ctx, u.Name())
	noise := tensor.New(imgs[0].Shape()...)
	result := &UniversalResult{}
epochs:
	for epoch := 0; epoch < u.Epochs && !e.halt(); epoch++ {
		result.Epochs = epoch + 1
		for _, img := range imgs {
			if !img.SameShape(imgs[0]) {
				return nil, fmt.Errorf("attacks: Universal crafting set has mixed shapes")
			}
			if e.halt() {
				break epochs
			}
			perturbed := tensor.Add(img, noise)
			perturbed.Clamp01()
			var grad *tensor.Tensor
			var dir float64
			if goal.IsTargeted() {
				pred, _ := Predict(c, perturbed)
				e.query(1)
				if pred == goal.Target {
					continue // already fooled; spend budget elsewhere
				}
				_, grad = CELossGrad(c, perturbed, goal.Target)
				e.query(1)
				dir = -1
			} else {
				pred, _ := Predict(c, perturbed)
				e.query(1)
				_, grad = CELossGrad(c, perturbed, pred)
				e.query(1)
				dir = +1
			}
			noise.AddScaled(dir*u.StepSize, tensor.SignOf(grad))
			noise.Clamp(-u.Epsilon, u.Epsilon)
		}
		result.FoolingRate = u.foolingRate(c, imgs, noise, goal, e)
		e.iterDone()
		if result.FoolingRate >= u.TargetRate {
			break
		}
	}
	result.Noise = noise
	result.Queries = e.queries
	result.Truncated = e.truncated
	return result, nil
}

func (u *Universal) foolingRate(c Classifier, imgs []*tensor.Tensor, noise *tensor.Tensor, goal Goal, e *exec) float64 {
	fooled := 0
	for _, img := range imgs {
		cleanPred, _ := Predict(c, img)
		perturbed := tensor.Add(img, noise)
		perturbed.Clamp01()
		advPred, _ := Predict(c, perturbed)
		e.query(2)
		if goal.IsTargeted() {
			if advPred == goal.Target {
				fooled++
			}
		} else if advPred != cleanPred {
			fooled++
		}
	}
	return float64(fooled) / float64(len(imgs))
}
