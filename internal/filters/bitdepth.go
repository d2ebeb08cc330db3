package filters

import (
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// BitDepth is the bit-depth squeezing defense (Xu et al.'s "feature
// squeezing"): every pixel is rounded to the nearest of 2^Bits levels,
// collapsing the low-amplitude perturbations adversarial noise lives in.
//
// Rounding is piecewise constant (zero derivative almost everywhere), so
// the VJP is the BPDA straight-through identity.
type BitDepth struct {
	// Bits is the retained bit depth in [1, 16]; 8 reproduces standard
	// image quantization, smaller values squeeze harder.
	Bits int
}

// NewBitDepth constructs a bit-depth squeeze to the given depth.
func NewBitDepth(bits int) *BitDepth {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("filters: bit depth %d outside [1, 16]", bits))
	}
	return &BitDepth{Bits: bits}
}

// Name implements Filter: the canonical spec, e.g. "bitdepth(bits=5)".
func (b *BitDepth) Name() string { return spec.Format("bitdepth", b.Params()) }

// Params implements Configurable.
func (b *BitDepth) Params() []Param {
	return []Param{
		spec.Int("bits", "retained bit depth; smaller squeezes harder", &b.Bits, 1, 16),
	}
}

// Apply implements Filter: round to the nearest of 2^Bits levels.
func (b *BitDepth) Apply(img *tensor.Tensor) *tensor.Tensor {
	checkCHW(b.Name(), img)
	out := img.Clone()
	levels := float64(int(1)<<b.Bits - 1)
	d := out.Data()
	for i, v := range d {
		d[i] = math.Floor(v*levels+0.5) / levels
	}
	return out
}

// ApplyBatch implements Filter via the serial fallback (a single
// multiply-round pass; fan-out overhead would dominate).
func (b *BitDepth) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return SerialBatch(b, imgs)
}

// VJP implements Filter using the BPDA straight-through identity (the
// true derivative of rounding is zero almost everywhere).
func (b *BitDepth) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	return upstream.Clone()
}
