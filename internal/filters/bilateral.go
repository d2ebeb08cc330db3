package filters

import (
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// Bilateral is an edge-preserving smoothing filter: each output pixel is a
// weighted average over a spatial window where the weights combine spatial
// proximity with photometric similarity. It removes small-amplitude
// adversarial noise while keeping the sign edges that LAP/LAR blur away —
// a natural "better defense" extension of the paper's filter family.
//
// Bilateral filtering is input-dependent (non-linear). Its VJP treats the
// weights as locally constant (the standard "lazy Jacobian" used when
// attacking bilateral-filter defenses): gradients are redistributed with
// the same weights computed at the forward point, which is exact for the
// numerator term and ignores the weight-derivative term.
type Bilateral struct {
	// Radius is the spatial window half-width.
	Radius int
	// SigmaSpace and SigmaColor control the two Gaussian kernels.
	SigmaSpace, SigmaColor float64
}

// NewBilateral constructs a bilateral filter.
func NewBilateral(radius int, sigmaSpace, sigmaColor float64) *Bilateral {
	if radius <= 0 || sigmaSpace <= 0 || sigmaColor <= 0 {
		panic(fmt.Sprintf("filters: bilateral parameters must be positive (r=%d σs=%v σc=%v)",
			radius, sigmaSpace, sigmaColor))
	}
	return &Bilateral{Radius: radius, SigmaSpace: sigmaSpace, SigmaColor: sigmaColor}
}

// Name implements Filter: the canonical spec, e.g. "bilateral(r=2,ss=2,sc=0.1)".
func (b *Bilateral) Name() string { return spec.Format("bilateral", b.Params()) }

// Params implements Configurable.
func (b *Bilateral) Params() []Param {
	return []Param{
		spec.Int("r", "spatial window half-width in pixels", &b.Radius, 1, maxRadius),
		spec.Float("ss", "spatial Gaussian sigma in pixels", &b.SigmaSpace, spec.MinPositive, 100),
		spec.Float("sc", "photometric (color) Gaussian sigma in intensity units", &b.SigmaColor, spec.MinPositive, 100),
	}
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool.
func (b *Bilateral) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(b, imgs)
}

// Apply implements Filter with replicate border handling.
func (b *Bilateral) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(b.Name(), img)
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	inv2ss := 1 / (2 * b.SigmaSpace * b.SigmaSpace)
	inv2sc := 1 / (2 * b.SigmaColor * b.SigmaColor)
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				center := id[base+y*w+x]
				num, den := 0.0, 0.0
				for dy := -b.Radius; dy <= b.Radius; dy++ {
					sy := clampInt(y+dy, 0, h-1)
					for dx := -b.Radius; dx <= b.Radius; dx++ {
						sx := clampInt(x+dx, 0, w-1)
						v := id[base+sy*w+sx]
						dc := v - center
						wgt := math.Exp(-float64(dy*dy+dx*dx)*inv2ss - dc*dc*inv2sc)
						num += wgt * v
						den += wgt
					}
				}
				od[base+y*w+x] = num / den
			}
		}
	}
	return out
}

// VJP implements Filter with the lazy-Jacobian approximation: the forward
// weights (computed at x) redistribute the upstream gradient.
func (b *Bilateral) VJP(x, upstream *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(b.Name()+" VJP", upstream)
	out := tensor.New(c, h, w)
	id, ud, od := x.Data(), upstream.Data(), out.Data()
	inv2ss := 1 / (2 * b.SigmaSpace * b.SigmaSpace)
	inv2sc := 1 / (2 * b.SigmaColor * b.SigmaColor)
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			for x0 := 0; x0 < w; x0++ {
				u := ud[base+y*w+x0]
				if u == 0 {
					continue
				}
				center := id[base+y*w+x0]
				// Recompute the forward weights and scatter u accordingly.
				den := 0.0
				for dy := -b.Radius; dy <= b.Radius; dy++ {
					sy := clampInt(y+dy, 0, h-1)
					for dx := -b.Radius; dx <= b.Radius; dx++ {
						sx := clampInt(x0+dx, 0, w-1)
						v := id[base+sy*w+sx]
						dc := v - center
						den += math.Exp(-float64(dy*dy+dx*dx)*inv2ss - dc*dc*inv2sc)
					}
				}
				for dy := -b.Radius; dy <= b.Radius; dy++ {
					sy := clampInt(y+dy, 0, h-1)
					for dx := -b.Radius; dx <= b.Radius; dx++ {
						sx := clampInt(x0+dx, 0, w-1)
						v := id[base+sy*w+sx]
						dc := v - center
						wgt := math.Exp(-float64(dy*dy+dx*dx)*inv2ss-dc*dc*inv2sc) / den
						od[base+sy*w+sx] += wgt * u
					}
				}
			}
		}
	}
	return out
}
