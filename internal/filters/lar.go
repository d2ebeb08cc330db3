package filters

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// PaperLARRadii are the radii evaluated in the paper's Fig. 7/9 sweeps
// (r = 1..5).
var PaperLARRadii = []int{1, 2, 3, 4, 5}

// LAR is the paper's "local average with radius" filter: each output
// pixel is the mean over the Euclidean disk of radius r centered on it
// (center included), with replicate border handling. Linear stencil,
// exact-adjoint VJP.
//
// Disk sizes: r=1 → 5 taps, r=2 → 13, r=3 → 29, r=4 → 49, r=5 → 81.
type LAR struct {
	r  int
	st *stencil
}

// NewLAR builds a LAR filter over the disk of radius r.
func NewLAR(r int) Filter {
	if r <= 0 {
		panic(fmt.Sprintf("filters: LAR radius %d must be positive", r))
	}
	f := &LAR{r: r}
	f.rebuild()
	return f
}

// rebuild reconstructs the stencil after a parameter change.
func (f *LAR) rebuild() {
	offs := diskOffsets(f.r)
	f.st = newStencil(f.Name(), offs, uniformWeights(len(offs)))
}

// Name implements Filter: the canonical spec, e.g. "lar(r=3)".
func (f *LAR) Name() string { return spec.Format("lar", f.Params()) }

// Taps returns the stencil tap count (the disk size).
func (f *LAR) Taps() int { return f.st.Taps() }

// Apply implements Filter.
func (f *LAR) Apply(img *tensor.Tensor) *tensor.Tensor { return f.st.Apply(img) }

// ApplyBatch implements Filter over the parallel pool.
func (f *LAR) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return f.st.ApplyBatch(imgs) }

// VJP implements Filter (exact adjoint).
func (f *LAR) VJP(x, upstream *tensor.Tensor) *tensor.Tensor { return f.st.VJP(x, upstream) }

// Params implements Configurable.
func (f *LAR) Params() []Param {
	return []Param{
		spec.Int("r", "Euclidean disk radius in pixels (paper sweep: 1..5)",
			&f.r, 1, maxRadius).Then(f.rebuild),
	}
}

// NewPaperLARs returns the five LAR configurations of the paper's sweep.
func NewPaperLARs() []Filter {
	out := make([]Filter, len(PaperLARRadii))
	for i, r := range PaperLARRadii {
		out[i] = NewLAR(r)
	}
	return out
}
