package filters

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// Gaussian is a Gaussian blur with the given standard deviation (taps
// truncated at ±3σ, weights normalized). It is a linear stencil, so like
// LAP/LAR its VJP is the exact adjoint. Included as a library extension
// beyond the paper's LAP/LAR pair.
type Gaussian struct {
	sigma float64
	st    *stencil
}

// NewGaussian builds a Gaussian blur with standard deviation sigma.
func NewGaussian(sigma float64) Filter {
	if sigma <= 0 {
		panic(fmt.Sprintf("filters: Gaussian sigma %v must be positive", sigma))
	}
	f := &Gaussian{sigma: sigma}
	f.rebuild()
	return f
}

// rebuild reconstructs the stencil after a parameter change.
func (f *Gaussian) rebuild() {
	offs, ws := gaussianOffsets(f.sigma)
	f.st = newStencil(f.Name(), offs, ws)
}

// Name implements Filter: the canonical spec, e.g. "gaussian(sigma=1.5)".
func (f *Gaussian) Name() string { return spec.Format("gaussian", f.Params()) }

// Taps returns the stencil tap count.
func (f *Gaussian) Taps() int { return f.st.Taps() }

// Apply implements Filter.
func (f *Gaussian) Apply(img *tensor.Tensor) *tensor.Tensor { return f.st.Apply(img) }

// ApplyBatch implements Filter over the parallel pool.
func (f *Gaussian) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return f.st.ApplyBatch(imgs) }

// VJP implements Filter (exact adjoint).
func (f *Gaussian) VJP(x, upstream *tensor.Tensor) *tensor.Tensor { return f.st.VJP(x, upstream) }

// Params implements Configurable.
func (f *Gaussian) Params() []Param {
	return []Param{
		spec.Float("sigma", "Gaussian standard deviation in pixels (taps truncated at ±3σ)",
			&f.sigma, spec.MinPositive, 10).Then(f.rebuild),
	}
}
