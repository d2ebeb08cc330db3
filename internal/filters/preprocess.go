package filters

import (
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// The paper's Section I-C lists the pre-processing elements adversarial
// pipelines commonly integrate besides noise filtering: "shuffling, gray
// scaling, local histogram utilization and normalization". This file
// implements them as Filter stages so FilteredClassifier can model full
// pre-processing stacks, not just the LAP/LAR smoothing of the
// experiments.

// Grayscale collapses RGB to ITU-R BT.601 luminance, replicated across the
// three channels so tensor shapes (and downstream networks) are unchanged.
// It is linear, so its VJP is the exact adjoint.
type Grayscale struct{}

// Name implements Filter: the canonical spec "grayscale" (no knobs).
func (Grayscale) Name() string { return "grayscale" }

// ApplyBatch implements Filter via the serial fallback (one pass over the
// pixels; fan-out overhead would dominate).
func (g Grayscale) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return SerialBatch(g, imgs) }

var lumaWeights = [3]float64{0.299, 0.587, 0.114}

// Apply implements Filter.
func (Grayscale) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW("Grayscale", img)
	if c != 3 {
		panic(fmt.Sprintf("filters: Grayscale wants 3 channels, got %d", c))
	}
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	plane := h * w
	for i := 0; i < plane; i++ {
		lum := lumaWeights[0]*id[i] + lumaWeights[1]*id[plane+i] + lumaWeights[2]*id[2*plane+i]
		od[i] = lum
		od[plane+i] = lum
		od[2*plane+i] = lum
	}
	return out
}

// VJP implements Filter: the adjoint of "weighted sum broadcast to three
// channels" is "sum the three upstream channels, distribute by weight".
func (Grayscale) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW("Grayscale VJP", upstream)
	if c != 3 {
		panic(fmt.Sprintf("filters: Grayscale VJP wants 3 channels, got %d", c))
	}
	out := tensor.New(c, h, w)
	ud, od := upstream.Data(), out.Data()
	plane := h * w
	for i := 0; i < plane; i++ {
		usum := ud[i] + ud[plane+i] + ud[2*plane+i]
		od[i] = lumaWeights[0] * usum
		od[plane+i] = lumaWeights[1] * usum
		od[2*plane+i] = lumaWeights[2] * usum
	}
	return out
}

// Normalize standardizes the image to a target mean and standard
// deviation (per image, over all channels) — the "normalization"
// pre-processing stage. It is differentiable; the VJP uses the standard
// lazy-Jacobian convention of treating the per-image statistics as
// constants (exact for the dominant scale term, omitting the O(1/N)
// statistic-derivative terms), which is how attack frameworks
// differentiate through input standardization.
type Normalize struct {
	// TargetMean and TargetStd define the output statistics.
	TargetMean, TargetStd float64
	// Eps guards against division by zero on constant images.
	Eps float64
}

// NewNormalize constructs a standardization stage.
func NewNormalize(mean, std float64) *Normalize {
	if std <= 0 {
		panic(fmt.Sprintf("filters: Normalize std %v must be positive", std))
	}
	return &Normalize{TargetMean: mean, TargetStd: std, Eps: 1e-8}
}

// Name implements Filter: the canonical spec, e.g. "normalize(mean=0.5,std=0.25)".
func (n *Normalize) Name() string { return spec.Format("normalize", n.Params()) }

// Params implements Configurable.
func (n *Normalize) Params() []Param {
	return []Param{
		spec.Float("mean", "target per-image mean", &n.TargetMean, -10, 10),
		spec.Float("std", "target per-image standard deviation", &n.TargetStd, spec.MinPositive, 10),
	}
}

// ApplyBatch implements Filter via the serial fallback.
func (n *Normalize) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return SerialBatch(n, imgs) }

func (n *Normalize) stats(img *tensor.Tensor) (mean, std float64) {
	mean = img.Mean()
	varv := 0.0
	for _, v := range img.Data() {
		d := v - mean
		varv += d * d
	}
	varv /= float64(img.Len())
	return mean, math.Sqrt(varv + n.Eps)
}

// Apply implements Filter.
func (n *Normalize) Apply(img *tensor.Tensor) *tensor.Tensor {
	checkCHW(n.Name(), img)
	mean, std := n.stats(img)
	out := tensor.New(img.Shape()...)
	scale := n.TargetStd / std
	id, od := img.Data(), out.Data()
	for i := range id {
		od[i] = (id[i]-mean)*scale + n.TargetMean
	}
	return out
}

// VJP implements Filter with frozen statistics: dx = upstream · targetStd/std.
func (n *Normalize) VJP(x, upstream *tensor.Tensor) *tensor.Tensor {
	checkCHW(n.Name()+" VJP", upstream)
	_, std := n.stats(x)
	out := upstream.Clone()
	out.ScaleInPlace(n.TargetStd / std)
	return out
}

// HistEq performs per-channel global histogram equalization (the
// "histogram utilization" stage): pixel values are remapped through their
// empirical CDF. The mapping is piecewise constant, hence
// non-differentiable; like the median filter its VJP is the BPDA identity.
type HistEq struct {
	// Bins is the histogram resolution (256 matches 8-bit pipelines).
	Bins int
}

// NewHistEq constructs a histogram-equalization stage with the given
// number of bins.
func NewHistEq(bins int) *HistEq {
	if bins < 2 {
		panic(fmt.Sprintf("filters: HistEq bins %d must be at least 2", bins))
	}
	return &HistEq{Bins: bins}
}

// Name implements Filter: the canonical spec, e.g. "histeq(bins=256)".
func (h *HistEq) Name() string { return spec.Format("histeq", h.Params()) }

// Params implements Configurable.
func (h *HistEq) Params() []Param {
	return []Param{
		spec.Int("bins", "histogram resolution over [0, 1] (256 matches 8-bit pipelines)",
			&h.Bins, 2, 1<<16),
	}
}

// ApplyBatch implements Filter via the serial fallback.
func (h *HistEq) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor { return SerialBatch(h, imgs) }

// Apply implements Filter: per channel, build a Bins-bucket histogram over
// [0, 1], form its CDF, and remap each pixel to the CDF value of its bin.
func (h *HistEq) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, hh, w := checkCHW(h.Name(), img)
	out := tensor.New(c, hh, w)
	id, od := img.Data(), out.Data()
	plane := hh * w
	hist := make([]float64, h.Bins)
	for ch := 0; ch < c; ch++ {
		seg := id[ch*plane : (ch+1)*plane]
		dst := od[ch*plane : (ch+1)*plane]
		for i := range hist {
			hist[i] = 0
		}
		binOf := func(v float64) int {
			b := int(v * float64(h.Bins))
			if b >= h.Bins {
				b = h.Bins - 1
			}
			if b < 0 {
				b = 0
			}
			return b
		}
		for _, v := range seg {
			hist[binOf(v)]++
		}
		// CDF normalized so the lowest occupied bin maps to 0 and the
		// highest to 1 (the classic equalization profile).
		cdf := make([]float64, h.Bins)
		acc := 0.0
		for i, cnt := range hist {
			acc += cnt
			cdf[i] = acc
		}
		var cdfMin float64
		for _, v := range cdf {
			if v > 0 {
				cdfMin = v
				break
			}
		}
		total := cdf[h.Bins-1]
		denom := total - cdfMin
		for i, v := range seg {
			if denom <= 0 {
				dst[i] = v // constant channel: leave unchanged
				continue
			}
			dst[i] = (cdf[binOf(v)] - cdfMin) / denom
		}
	}
	return out
}

// VJP implements Filter using the BPDA identity (the true Jacobian is zero
// almost everywhere).
func (h *HistEq) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	return upstream.Clone()
}
