package filters

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// Box is a square box (mean) filter with the given half-width: the
// (2r+1)² uniform average classical image pipelines default to. It is a
// stencil like LAP/LAR, so its VJP is the exact adjoint. Included to let
// experiments compare the paper's circular LAR footprint against the
// square box of equal radius.
type Box struct {
	r  int
	st *stencil
}

// NewBox builds a box filter with window half-width r.
func NewBox(radius int) Filter {
	if radius <= 0 {
		panic(fmt.Sprintf("filters: box radius %d must be positive", radius))
	}
	f := &Box{r: radius}
	f.rebuild()
	return f
}

// rebuild reconstructs the stencil after a parameter change.
func (f *Box) rebuild() {
	var offs []offset
	for dy := -f.r; dy <= f.r; dy++ {
		for dx := -f.r; dx <= f.r; dx++ {
			offs = append(offs, offset{dy, dx})
		}
	}
	f.st = newStencil(f.Name(), offs, uniformWeights(len(offs)))
}

// Name implements Filter: the canonical spec, e.g. "box(r=2)".
func (f *Box) Name() string { return spec.Format("box", f.Params()) }

// Taps returns the stencil tap count ((2r+1)²).
func (f *Box) Taps() int { return f.st.Taps() }

// Apply implements Filter.
func (f *Box) Apply(img *tensor.Tensor) *tensor.Tensor { return f.st.Apply(img) }

// ApplyBatch implements Filter over the parallel pool.
func (f *Box) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return f.st.ApplyBatch(imgs) }

// VJP implements Filter (exact adjoint).
func (f *Box) VJP(x, upstream *tensor.Tensor) *tensor.Tensor { return f.st.VJP(x, upstream) }

// Params implements Configurable.
func (f *Box) Params() []Param {
	return []Param{
		spec.Int("r", "square window half-width in pixels", &f.r, 1, maxRadius).Then(f.rebuild),
	}
}
