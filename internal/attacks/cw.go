package attacks

import (
	"context"
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// CW is the Carlini & Wagner L2 attack (the "CWI" entry of the paper's
// attack-library figures). It optimizes in tanh space, so the box
// constraint is satisfied by construction:
//
//	x* = (tanh(w) + 1)/2
//	minimize ‖x* − x‖² + c · max(max_{i≠t} Z_i − Z_t, −κ)
//
// using plain gradient descent with momentum over w, binary-searching the
// constant c between attack success and distortion.
type CW struct {
	// Kappa is the confidence margin κ.
	Kappa float64
	// Steps is the number of optimizer iterations per c.
	Steps int
	// LR is the optimizer learning rate.
	LR float64
	// InitialC seeds the c binary search; BinarySearch is its depth.
	InitialC     float64
	BinarySearch int
}

// NewCW constructs the attack with moderate defaults (κ=0, 120 steps,
// 4 binary-search rounds).
func NewCW() *CW {
	return &CW{Kappa: 0, Steps: 120, LR: 0.02, InitialC: 1, BinarySearch: 4}
}

// Name implements Attack.
func (a *CW) Name() string { return spec.Format("cw", a.Params()) }

// Params implements Configurable.
func (a *CW) Params() []Param {
	return []Param{
		spec.Float("kappa", "confidence margin κ", &a.Kappa, 0, 100),
		spec.Int("steps", "optimizer iterations per c value", &a.Steps, 1, maxSteps),
		spec.Float("lr", "optimizer learning rate", &a.LR, spec.MinPositive, 10),
		spec.Float("c", "initial margin weight for the c search", &a.InitialC, spec.MinPositive, 1e6),
		spec.Int("search", "binary-search depth over c", &a.BinarySearch, 1, 64),
	}
}

// Generate implements Attack. The C&W formulation is targeted.
func (a *CW) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if !goal.IsTargeted() {
		return nil, fmt.Errorf("attacks: C&W attack requires a targeted goal")
	}
	if a.Steps <= 0 || a.LR <= 0 || a.InitialC <= 0 || a.BinarySearch <= 0 {
		return nil, fmt.Errorf("attacks: C&W parameters must be positive")
	}

	n := x.Len()
	// tanh-space parameterization of the clean image, nudged inward so
	// atanh is finite.
	w0 := make([]float64, n)
	for i, v := range x.Data() {
		v = math.Min(math.Max(v, 1e-6), 1-1e-6)
		w0[i] = math.Atanh(2*v - 1)
	}

	e := begin(ctx, a.Name())
	iters := 0
	cLo, cHi := 0.0, math.Inf(1)
	cVal := a.InitialC
	var bestAdv *tensor.Tensor
	bestDist := math.Inf(1)

	for round := 0; round < a.BinarySearch && !e.halt(); round++ {
		w := append([]float64(nil), w0...)
		vel := make([]float64, n)
		successAtC := false
		for it := 0; it < a.Steps && !e.halt(); it++ {
			iters++
			// Forward map w -> adv image.
			adv := tensor.New(x.Shape()...)
			ad := adv.Data()
			for i := range ad {
				ad[i] = (math.Tanh(w[i]) + 1) / 2
			}
			// Margin loss gradient on logits.
			var margin float64
			_, grad := c.GradFromLogits(adv, func(z []float64) []float64 {
				bestOther, bestIdx := math.Inf(-1), -1
				for i, v := range z {
					if i != goal.Target && v > bestOther {
						bestOther, bestIdx = v, i
					}
				}
				margin = bestOther - z[goal.Target]
				d := make([]float64, len(z))
				if margin > -a.Kappa {
					d[bestIdx] = cVal
					d[goal.Target] = -cVal
				}
				return d
			})
			e.query(1)
			// Total gradient in w space: distortion term + margin term,
			// chained through dx/dw = (1 - tanh²(w))/2.
			gd := grad.Data()
			xd := x.Data()
			for i := range w {
				th := math.Tanh(w[i])
				dxdw := (1 - th*th) / 2
				gTotal := (2*(ad[i]-xd[i]) + gd[i]) * dxdw
				vel[i] = 0.9*vel[i] - a.LR*gTotal
				w[i] += vel[i]
			}
			if margin <= -a.Kappa {
				successAtC = true
				dist := tensor.Sub(adv, x).L2Norm()
				if dist < bestDist {
					bestDist = dist
					bestAdv = adv.Clone()
				}
			}
			e.iterDone()
		}
		// Binary search on c: success → try smaller (less distortion
		// pressure is not the point here — c multiplies the margin term,
		// so success means we can lower c to reduce distortion).
		if successAtC {
			cHi = cVal
			cVal = (cLo + cVal) / 2
		} else {
			cLo = cVal
			if math.IsInf(cHi, 1) {
				cVal *= 10
			} else {
				cVal = (cVal + cHi) / 2
			}
		}
	}
	if bestAdv == nil {
		// Attack failed at every c; fall back to the clean image so the
		// caller gets honest "no success" bookkeeping.
		bestAdv = x.Clone()
	}
	return e.finish(c, x, bestAdv, goal, iters), nil
}
