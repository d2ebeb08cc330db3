package filters

import (
	"fmt"
	"sort"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// Median is a square-window median filter, the classic non-linear
// smoothing defense. It is not differentiable, so its VJP uses the BPDA
// identity approximation (treat the filter as identity on the backward
// pass), which is how filter-aware attacks handle non-differentiable
// pre-processing in practice.
type Median struct {
	// Radius is the window half-width; the window is (2·Radius+1)².
	Radius int
}

// NewMedian constructs a median filter with the given window radius.
func NewMedian(radius int) *Median {
	if radius <= 0 {
		panic(fmt.Sprintf("filters: median radius %d must be positive", radius))
	}
	return &Median{Radius: radius}
}

// Name implements Filter: the canonical spec, e.g. "median(r=1)".
func (m *Median) Name() string { return spec.Format("median", m.Params()) }

// Apply implements Filter with replicate border handling.
func (m *Median) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(m.Name(), img)
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	side := 2*m.Radius + 1
	window := make([]float64, 0, side*side)
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				window = window[:0]
				for dy := -m.Radius; dy <= m.Radius; dy++ {
					sy := clampInt(y+dy, 0, h-1)
					for dx := -m.Radius; dx <= m.Radius; dx++ {
						sx := clampInt(x+dx, 0, w-1)
						window = append(window, id[base+sy*w+sx])
					}
				}
				sort.Float64s(window)
				od[base+y*w+x] = window[len(window)/2]
			}
		}
	}
	return out
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool (the sort-per-pixel forward is the most
// expensive classical filter in the library).
func (m *Median) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(m, imgs)
}

// VJP implements Filter using the BPDA identity: the upstream gradient is
// passed through unchanged. This is an approximation (the true median
// Jacobian is a sparse selection matrix), adequate for attack optimization
// and standard practice for non-differentiable pre-processing.
func (m *Median) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	return upstream.Clone()
}

// Params implements Configurable.
func (m *Median) Params() []Param {
	return []Param{
		spec.Int("r", "window half-width in pixels; the window is (2r+1)²", &m.Radius, 1, maxRadius),
	}
}
