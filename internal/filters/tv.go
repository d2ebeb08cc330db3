package filters

import (
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// tvEps is the Charbonnier smoothing constant: the TV magnitude is
// √(|∇u|² + ε²), which keeps the energy twice differentiable (so the
// unrolled VJP is exact) while behaving like true TV for gradients ≫ ε.
const tvEps = 0.1

// TVDenoise is total-variation denoising (Rudin–Osher–Fatemi), the
// classic edge-preserving denoiser Nguyen et al. catalog as an
// adversarial input-correction operation: it minimizes
//
//	E(u) = ½‖u − x‖² + λ·Σ √(|∇u|² + ε²)
//
// by Iters explicit gradient steps from u = x, with the step size chosen
// from the energy's curvature bound (τ = 1/(1 + 8λ/ε)) so the unrolled
// descent is stable for every parameter choice.
//
// Unlike the median/JPEG/bit-depth defenses, the Charbonnier-smoothed
// energy is twice differentiable, so the VJP is EXACT: reverse-mode
// differentiation through the unrolled iterations (one Hessian-vector
// product of the TV term per step), pinned by finite-difference tests.
type TVDenoise struct {
	// Lambda is the smoothing weight: larger flattens harder.
	Lambda float64
	// Iters is the number of unrolled gradient steps.
	Iters int
}

// NewTVDenoise constructs a TV denoiser.
func NewTVDenoise(lambda float64, iters int) *TVDenoise {
	if lambda <= 0 || iters < 1 {
		panic(fmt.Sprintf("filters: TV parameters out of range (lambda=%v iters=%d)", lambda, iters))
	}
	return &TVDenoise{Lambda: lambda, Iters: iters}
}

// Name implements Filter: the canonical spec, e.g. "tv(lambda=0.15,iters=15)".
func (t *TVDenoise) Name() string { return spec.Format("tv", t.Params()) }

// Params implements Configurable.
func (t *TVDenoise) Params() []Param {
	return []Param{
		spec.Float("lambda", "TV smoothing weight; larger flattens harder",
			&t.Lambda, spec.MinPositive, 100),
		spec.Int("iters", "unrolled gradient-descent steps", &t.Iters, 1, 1000),
	}
}

// step returns the stable gradient step size for the current Lambda:
// the energy Hessian is bounded by 1 + λ‖LᵀL‖/ε with ‖LᵀL‖ ≤ 8 for the
// 2-D forward-difference operator.
func (t *TVDenoise) step() float64 { return 1 / (1 + 8*t.Lambda/tvEps) }

// tvGrad accumulates λ·∇TV(u) plus the data term (u − x) into g, all
// length-n planes (one image channel, h×w).
func tvGrad(u, x, g []float64, h, w int, lambda float64) {
	for i := range g {
		g[i] = u[i] - x[i]
	}
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			p := y*w + xx
			dx, dy := 0.0, 0.0
			if xx < w-1 {
				dx = u[p+1] - u[p]
			}
			if y < h-1 {
				dy = u[p+w] - u[p]
			}
			n := math.Sqrt(dx*dx + dy*dy + tvEps*tvEps)
			g[p] -= lambda * (dx + dy) / n
			if xx < w-1 {
				g[p+1] += lambda * dx / n
			}
			if y < h-1 {
				g[p+w] += lambda * dy / n
			}
		}
	}
}

// tvHessVec accumulates λ·H_TV(u)·v into out (out must be zeroed by the
// caller), where H_TV is the Hessian of the Charbonnier TV term at u.
func tvHessVec(u, v, out []float64, h, w int, lambda float64) {
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			p := y*w + xx
			dx, dy, vx, vy := 0.0, 0.0, 0.0, 0.0
			if xx < w-1 {
				dx = u[p+1] - u[p]
				vx = v[p+1] - v[p]
			}
			if y < h-1 {
				dy = u[p+w] - u[p]
				vy = v[p+w] - v[p]
			}
			n := math.Sqrt(dx*dx + dy*dy + tvEps*tvEps)
			n3 := n * n * n
			hx := lambda * ((dy*dy+tvEps*tvEps)*vx - dx*dy*vy) / n3
			hy := lambda * ((dx*dx+tvEps*tvEps)*vy - dx*dy*vx) / n3
			out[p] -= hx + hy
			if xx < w-1 {
				out[p+1] += hx
			}
			if y < h-1 {
				out[p+w] += hy
			}
		}
	}
}

// Apply implements Filter: Iters explicit gradient steps on the ROF
// energy, per channel, starting from the input.
func (t *TVDenoise) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(t.Name(), img)
	out := img.Clone()
	od := out.Data()
	plane := h * w
	tau := t.step()
	g := make([]float64, plane)
	for ch := 0; ch < c; ch++ {
		x := img.Data()[ch*plane : (ch+1)*plane]
		u := od[ch*plane : (ch+1)*plane]
		for k := 0; k < t.Iters; k++ {
			tvGrad(u, x, g, h, w, t.Lambda)
			for i := range u {
				u[i] -= tau * g[i]
			}
		}
	}
	return out
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool.
func (t *TVDenoise) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(t, imgs)
}

// VJP implements Filter EXACTLY: reverse-mode differentiation through the
// unrolled gradient descent. The forward iterates are replayed from x,
// then each step's adjoint applies (I − τ(I + λ·H_TV(u_k))) to the
// running gradient — the TV Hessian-vector product mirrors tvGrad — and
// the data term's explicit x-dependence accumulates τ·r per step.
func (t *TVDenoise) VJP(x, upstream *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(t.Name()+" VJP", upstream)
	plane := h * w
	tau := t.step()
	out := tensor.New(c, h, w)
	g := make([]float64, plane)
	hv := make([]float64, plane)
	r := make([]float64, plane)
	// Forward replay storage: the input of every step.
	iters := make([][]float64, t.Iters)
	for k := range iters {
		iters[k] = make([]float64, plane)
	}
	u := make([]float64, plane)
	for ch := 0; ch < c; ch++ {
		xd := x.Data()[ch*plane : (ch+1)*plane]
		copy(u, xd)
		for k := 0; k < t.Iters; k++ {
			copy(iters[k], u)
			tvGrad(u, xd, g, h, w, t.Lambda)
			for i := range u {
				u[i] -= tau * g[i]
			}
		}
		// Reverse pass.
		copy(r, upstream.Data()[ch*plane:(ch+1)*plane])
		gx := out.Data()[ch*plane : (ch+1)*plane]
		for k := t.Iters - 1; k >= 0; k-- {
			// Explicit x-dependence of step k: +τ·x in the data term.
			for i := range gx {
				gx[i] += tau * r[i]
			}
			// r ← (I − τ·I − τ·λ·H_TV(u_k))·r.
			for i := range hv {
				hv[i] = 0
			}
			tvHessVec(iters[k], r, hv, h, w, t.Lambda)
			for i := range r {
				r[i] -= tau * (r[i] + hv[i])
			}
		}
		// u_0 = x.
		for i := range gx {
			gx[i] += r[i]
		}
	}
	return out
}
