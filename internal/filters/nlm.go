package filters

import (
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// NLM is the non-local means denoiser (Buades et al.), the strongest
// classical denoising defense in the library: each output pixel is a
// weighted average over a search window where the weight of a candidate
// pixel decays with the mean squared distance between the PATCHES around
// the two pixels — so self-similar structure is averaged together while
// genuinely different content is not, removing adversarial noise with
// far less edge damage than LAP/LAR.
//
//	out[p] = Σ_q w(p,q)·v[q] / Σ_q w(p,q)
//	w(p,q) = exp(−msd(patch(p), patch(q)) / h²)
//
// with q ranging over the (2·Window+1)² search window and msd the mean
// squared difference over the (2·Patch+1)² patches, all replicate-
// clamped at borders.
//
// The weights are smooth in the input, so the VJP is EXACT: it carries
// both the direct averaging term and the weight-derivative term (the
// chain through msd), pinned by finite-difference tests.
type NLM struct {
	// H is the filter strength: patch distances are scored against h².
	H float64
	// Patch is the patch half-width used for similarity.
	Patch int
	// Window is the search-window half-width.
	Window int
}

// NewNLM constructs a non-local means filter.
func NewNLM(h float64, patch, window int) *NLM {
	if h <= 0 || patch < 0 || window < 1 {
		panic(fmt.Sprintf("filters: NLM parameters out of range (h=%v patch=%d window=%d)", h, patch, window))
	}
	return &NLM{H: h, Patch: patch, Window: window}
}

// Name implements Filter: the canonical spec, e.g. "nlm(h=0.1,patch=1,window=3)".
func (f *NLM) Name() string { return spec.Format("nlm", f.Params()) }

// Params implements Configurable.
func (f *NLM) Params() []Param {
	return []Param{
		spec.Float("h", "filter strength; patch distances are scored against h²",
			&f.H, spec.MinPositive, 100),
		spec.Int("patch", "patch half-width for similarity (0 = single pixel)", &f.Patch, 0, 3),
		spec.Int("window", "search-window half-width", &f.Window, 1, 7),
	}
}

// msd returns the mean squared difference between the patches centered
// on (py,px) and (qy,qx) of one h×w plane, replicate-clamped.
func (f *NLM) msd(v []float64, h, w, py, px, qy, qx int) float64 {
	sum := 0.0
	for ty := -f.Patch; ty <= f.Patch; ty++ {
		for tx := -f.Patch; tx <= f.Patch; tx++ {
			a := v[clampInt(py+ty, 0, h-1)*w+clampInt(px+tx, 0, w-1)]
			b := v[clampInt(qy+ty, 0, h-1)*w+clampInt(qx+tx, 0, w-1)]
			d := a - b
			sum += d * d
		}
	}
	side := 2*f.Patch + 1
	return sum / float64(side*side)
}

// Apply implements Filter.
func (f *NLM) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(f.Name(), img)
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	invH2 := 1 / (f.H * f.H)
	for ch := 0; ch < c; ch++ {
		v := id[ch*h*w : (ch+1)*h*w]
		dst := od[ch*h*w : (ch+1)*h*w]
		for py := 0; py < h; py++ {
			for px := 0; px < w; px++ {
				num, den := 0.0, 0.0
				for dy := -f.Window; dy <= f.Window; dy++ {
					qy := clampInt(py+dy, 0, h-1)
					for dx := -f.Window; dx <= f.Window; dx++ {
						qx := clampInt(px+dx, 0, w-1)
						wgt := math.Exp(-f.msd(v, h, w, py, px, qy, qx) * invH2)
						num += wgt * v[qy*w+qx]
						den += wgt
					}
				}
				dst[py*w+px] = num / den
			}
		}
	}
	return out
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool (NLM is the heaviest forward in the library).
func (f *NLM) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(f, imgs)
}

// VJP implements Filter exactly. For out_p = N_p/D_p:
//
//	∂out_p/∂v = (Σ_q ∂w_pq/∂v · (v_q − out_p) + Σ_q w_pq · e_q) / D_p
//
// so each output pixel p scatters its upstream gradient u_p through the
// direct averaging term (u_p·w_pq/D_p onto q) and through every weight's
// patch-difference chain (∂w/∂msd = −w/h², ∂msd/∂v over the clamped
// patch index pairs).
func (f *NLM) VJP(x, upstream *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(f.Name()+" VJP", upstream)
	out := tensor.New(c, h, w)
	id, ud, od := x.Data(), upstream.Data(), out.Data()
	invH2 := 1 / (f.H * f.H)
	side := 2*f.Patch + 1
	patchN := float64(side * side)
	wside := 2*f.Window + 1
	// Per-pixel weight buffer: the forward weights are needed by both
	// the output recomputation and the scatter pass, and each one costs
	// a full patch msd plus an exp — compute them once.
	wbuf := make([]float64, wside*wside)
	for ch := 0; ch < c; ch++ {
		v := id[ch*h*w : (ch+1)*h*w]
		u := ud[ch*h*w : (ch+1)*h*w]
		g := od[ch*h*w : (ch+1)*h*w]
		for py := 0; py < h; py++ {
			for px := 0; px < w; px++ {
				up := u[py*w+px]
				if up == 0 {
					continue
				}
				// Recompute the forward weights and output at p.
				num, den := 0.0, 0.0
				for dy := -f.Window; dy <= f.Window; dy++ {
					qy := clampInt(py+dy, 0, h-1)
					for dx := -f.Window; dx <= f.Window; dx++ {
						qx := clampInt(px+dx, 0, w-1)
						wgt := math.Exp(-f.msd(v, h, w, py, px, qy, qx) * invH2)
						wbuf[(dy+f.Window)*wside+dx+f.Window] = wgt
						num += wgt * v[qy*w+qx]
						den += wgt
					}
				}
				outP := num / den
				scale := up / den
				for dy := -f.Window; dy <= f.Window; dy++ {
					qy := clampInt(py+dy, 0, h-1)
					for dx := -f.Window; dx <= f.Window; dx++ {
						qx := clampInt(px+dx, 0, w-1)
						wgt := wbuf[(dy+f.Window)*wside+dx+f.Window]
						// Direct averaging term.
						g[qy*w+qx] += scale * wgt
						// Weight-derivative term through the patch msd.
						coef := scale * (v[qy*w+qx] - outP) * wgt * (-invH2) * 2 / patchN
						if coef == 0 {
							continue
						}
						for ty := -f.Patch; ty <= f.Patch; ty++ {
							for tx := -f.Patch; tx <= f.Patch; tx++ {
								cp := clampInt(py+ty, 0, h-1)*w + clampInt(px+tx, 0, w-1)
								cq := clampInt(qy+ty, 0, h-1)*w + clampInt(qx+tx, 0, w-1)
								diff := v[cp] - v[cq]
								if diff == 0 {
									continue
								}
								g[cp] += coef * diff
								g[cq] -= coef * diff
							}
						}
					}
				}
			}
		}
	}
	return out
}
