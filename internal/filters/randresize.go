package filters

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// RandResize is the random resize-and-pad defense (Xie et al., ICLR
// 2018): the image is bilinearly shrunk by a scale factor drawn
// uniformly from [Lo, Hi] and pasted at a random offset into a
// zero-padded canvas of the original size, so the spatial alignment an
// attacker optimized against never survives deployment exactly. The
// (scale, offset) draw is a pure function of (Seed, image) per the
// Stochastic contract — draw order: scale, then row offset, then column
// offset.
//
// Its VJP is exact: for a fixed draw, resize-and-pad is a linear map,
// and the backward pass recomputes the forward draw from the input and
// applies the transpose (crop the upstream gradient at the offset, then
// scatter it back through the bilinear interpolation weights).
type RandResize struct {
	// Lo and Hi bound the scale draw as fractions of the input size,
	// 0 < Lo ≤ Hi ≤ 1.
	Lo, Hi float64
	// SeedVal is the base of the per-image draw stream.
	SeedVal uint64
}

// NewRandResize constructs a random resize-and-pad defense.
func NewRandResize(lo, hi float64, seed uint64) *RandResize {
	f := &RandResize{Lo: lo, Hi: hi, SeedVal: seed}
	if err := f.Validate(); err != nil {
		panic("filters: " + err.Error())
	}
	return f
}

// Name implements Filter: the canonical spec, e.g.
// "randresize(lo=0.8,hi=1,seed=1)".
func (r *RandResize) Name() string { return spec.Format("randresize", r.Params()) }

// Params implements Configurable.
func (r *RandResize) Params() []Param {
	return []Param{
		spec.Float("lo", "lower bound of the scale draw, a fraction of input size", &r.Lo, 1e-3, 1),
		spec.Float("hi", "upper bound of the scale draw, a fraction of input size", &r.Hi, 1e-3, 1),
		spec.Uint("seed", "base seed of the per-image draw stream", &r.SeedVal),
	}
}

// Validate implements Validator: the scale bounds must be ordered.
func (r *RandResize) Validate() error {
	if !(r.Lo > 0 && r.Lo <= r.Hi && r.Hi <= 1) {
		return fmt.Errorf("randresize: want 0 < lo <= hi <= 1, got lo=%v hi=%v", r.Lo, r.Hi)
	}
	return nil
}

// Seed implements Stochastic.
func (r *RandResize) Seed() uint64 { return r.SeedVal }

// WithSeed implements Stochastic.
func (r *RandResize) WithSeed(seed uint64) Filter {
	c := *r
	c.SeedVal = seed
	return &c
}

// resizeDraw is one realized (scale, offset) sample.
type resizeDraw struct {
	sh, sw int // shrunk size
	dy, dx int // paste offset in the padded canvas
}

// draw realizes the deterministic sample for img.
func (r *RandResize) draw(img *tensor.Tensor, h, w int) resizeDraw {
	rng := mathx.NewRNG(ImageSeed(r.SeedVal, img))
	frac := rng.Range(r.Lo, r.Hi)
	sh := int(frac*float64(h) + 0.5)
	if sh < 1 {
		sh = 1
	}
	if sh > h {
		sh = h
	}
	sw := int(frac*float64(w) + 0.5)
	if sw < 1 {
		sw = 1
	}
	if sw > w {
		sw = w
	}
	return resizeDraw{sh: sh, sw: sw, dy: rng.IntN(h - sh + 1), dx: rng.IntN(w - sw + 1)}
}

// Apply implements Filter.
func (r *RandResize) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(r.Name(), img)
	d := r.draw(img, h, w)
	out := tensor.New(c, h, w)
	if d.sh == h && d.sw == w {
		// Scale 1 draw: the map degenerates to identity.
		copy(out.Data(), img.Data())
		return out
	}
	rows := lerpTaps(h, d.sh)
	cols := lerpTaps(w, d.sw)
	id, od := img.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < d.sh; y++ {
			ry := rows[y]
			orow := base + (d.dy+y)*w + d.dx
			for x := 0; x < d.sw; x++ {
				cx := cols[x]
				od[orow+x] = ry.w0*(cx.w0*id[base+ry.i0*w+cx.i0]+cx.w1*id[base+ry.i0*w+cx.i1]) +
					ry.w1*(cx.w0*id[base+ry.i1*w+cx.i0]+cx.w1*id[base+ry.i1*w+cx.i1])
			}
		}
	}
	return out
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool; each image's draw is independent.
func (r *RandResize) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(r, imgs)
}

// VJP implements Filter: the exact adjoint of the linear map the
// forward draw realized — crop upstream at the paste offset and
// scatter-add through the same bilinear weights (resizeAdjoint).
func (r *RandResize) VJP(x, upstream *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(r.Name(), x)
	d := r.draw(x, h, w)
	if d.sh == h && d.sw == w {
		return upstream.Clone()
	}
	return resizeAdjoint(upstream, c, h, w, d)
}

// resizeAdjoint computes the transpose of the resize-and-pad map for a
// fixed draw: grad[src] += weight · upstream[dst] over exactly the
// (dst, src, weight) triples the forward pass read.
func resizeAdjoint(upstream *tensor.Tensor, c, h, w int, d resizeDraw) *tensor.Tensor {
	rows := lerpTaps(h, d.sh)
	cols := lerpTaps(w, d.sw)
	out := tensor.New(c, h, w)
	ud, od := upstream.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < d.sh; y++ {
			ry := rows[y]
			urow := base + (d.dy+y)*w + d.dx
			for x := 0; x < d.sw; x++ {
				cx := cols[x]
				g := ud[urow+x]
				od[base+ry.i0*w+cx.i0] += ry.w0 * cx.w0 * g
				od[base+ry.i0*w+cx.i1] += ry.w0 * cx.w1 * g
				od[base+ry.i1*w+cx.i0] += ry.w1 * cx.w0 * g
				od[base+ry.i1*w+cx.i1] += ry.w1 * cx.w1 * g
			}
		}
	}
	return out
}

// lerpTap is one output sample's bilinear source pair along one axis.
type lerpTap struct {
	i0, i1 int
	w0, w1 float64
}

// lerpTaps builds the center-aligned bilinear taps mapping n source
// samples onto m output samples (m ≤ n), with edge coordinates clamped.
func lerpTaps(n, m int) []lerpTap {
	taps := make([]lerpTap, m)
	scale := float64(n) / float64(m)
	for j := 0; j < m; j++ {
		f := (float64(j)+0.5)*scale - 0.5
		i0f := math.Floor(f)
		t := f - i0f
		i0 := clampInt(int(i0f), 0, n-1)
		i1 := clampInt(int(i0f)+1, 0, n-1)
		taps[j] = lerpTap{i0: i0, i1: i1, w0: 1 - t, w1: t}
	}
	return taps
}
