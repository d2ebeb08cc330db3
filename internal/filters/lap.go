package filters

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// PaperLAPSizes are the neighbour counts evaluated in the paper's Fig. 7/9
// sweeps (np = 4, 8, 16, 32, 64).
var PaperLAPSizes = []int{4, 8, 16, 32, 64}

// LAP is the paper's "local average with neighbourhood pixels" filter:
// each output pixel is the mean of the center pixel and its np nearest
// neighbours (Euclidean distance, deterministic tie-breaking), with
// replicate border handling.
//
// np=4 is the von Neumann cross, np=8 the full 3×3 Moore neighbourhood;
// larger np grow the neighbourhood outward by distance, matching the
// paper's np ∈ {4, 8, 16, 32, 64} sweep. It is a linear stencil, so its
// VJP is the exact adjoint.
type LAP struct {
	np int
	st *stencil
}

// NewLAP builds a LAP filter over the np nearest neighbour pixels.
func NewLAP(np int) Filter {
	if np <= 0 {
		panic(fmt.Sprintf("filters: LAP neighbourhood %d must be positive", np))
	}
	f := &LAP{np: np}
	f.rebuild()
	return f
}

// rebuild reconstructs the stencil after a parameter change.
func (f *LAP) rebuild() {
	// Search radius large enough to contain np neighbours: the disk of
	// radius R holds ~πR² pixels, so growing from 2 terminates quickly.
	radius := 2
	for len(sortedNeighborhood(radius)) < f.np {
		radius++
	}
	neigh := sortedNeighborhood(radius)[:f.np]
	offs := append([]offset{{0, 0}}, neigh...)
	f.st = newStencil(f.Name(), offs, uniformWeights(len(offs)))
}

// Name implements Filter: the canonical spec, e.g. "lap(np=32)".
func (f *LAP) Name() string { return spec.Format("lap", f.Params()) }

// Taps returns the stencil tap count (np + 1 for the center).
func (f *LAP) Taps() int { return f.st.Taps() }

// Apply implements Filter.
func (f *LAP) Apply(img *tensor.Tensor) *tensor.Tensor { return f.st.Apply(img) }

// ApplyBatch implements Filter over the parallel pool.
func (f *LAP) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return f.st.ApplyBatch(imgs) }

// VJP implements Filter (exact adjoint).
func (f *LAP) VJP(x, upstream *tensor.Tensor) *tensor.Tensor { return f.st.VJP(x, upstream) }

// Params implements Configurable.
func (f *LAP) Params() []Param {
	return []Param{
		spec.Int("np", "neighbours averaged with the center (paper sweep: 4, 8, 16, 32, 64)",
			&f.np, 1, 1024).Then(f.rebuild),
	}
}

// NewPaperLAPs returns the five LAP configurations of the paper's sweep.
func NewPaperLAPs() []Filter {
	out := make([]Filter, len(PaperLAPSizes))
	for i, np := range PaperLAPSizes {
		out[i] = NewLAP(np)
	}
	return out
}
