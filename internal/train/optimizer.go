// Package train provides the mini-batch training loop for the nn substrate
// (Adam on softmax cross-entropy), its learning-rate schedules, and the one
// batched, parallel evaluation entry point (top-1/top-5 accuracy and mean
// confidence) used throughout the experiment harness.
package train

import (
	"math"

	"repro/internal/nn"
)

// adam is the Adam optimizer (Kingma & Ba) with bias correction. It trains
// the small VGG quickly without per-topology tuning. The hyper-parameters
// are fields, not constants: 1-beta1 must be the run-time subtraction
// (0.09999999999999998 for 0.9), which is what every pinned weight digest
// was trained with; a constant expression would fold to exactly 0.1.
type adam struct {
	beta1, beta2, eps float64
	t                 int
	m, v              [][]float64 // first and second moments, one per param
}

// newAdam constructs Adam with the canonical defaults beta1=0.9,
// beta2=0.999, eps=1e-8.
func newAdam() *adam {
	return &adam{beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// step applies one update from the accumulated gradients at learning rate
// lr. params must be the same slice, in the same order, on every call.
func (a *adam) step(params []*nn.Param, lr float64) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, p.Value.Len())
			a.v[i] = make([]float64, p.Value.Len())
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for pi, p := range params {
		m, v := a.m[pi], a.v[pi]
		wd, gd := p.Value.Data(), p.Grad.Data()
		for i := range m {
			g := gd[i]
			m[i] = a.beta1*m[i] + (1-a.beta1)*g
			v[i] = a.beta2*v[i] + (1-a.beta2)*g*g
			mHat := m[i] / c1
			vHat := v[i] / c2
			wd[i] -= lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}
