package filters

import (
	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// RandFlip mirrors the image horizontally with probability P — the
// cheapest member of the random-transformation defense family. The
// flip decision is a pure function of (Seed, image), per the Stochastic
// contract.
//
// Its VJP is exact: a flip is a permutation, and a permutation's adjoint
// is the inverse permutation (the flip itself). The decision is
// recomputed from the forward input, so the backward pass mirrors the
// gradient exactly when the forward pass mirrored the image.
type RandFlip struct {
	// P is the flip probability in [0, 1].
	P float64
	// SeedVal is the base of the per-image decision stream.
	SeedVal uint64
}

// NewRandFlip constructs a random horizontal-flip defense.
func NewRandFlip(p float64, seed uint64) *RandFlip {
	if !(p >= 0 && p <= 1) {
		panic("filters: randflip probability outside [0, 1]")
	}
	return &RandFlip{P: p, SeedVal: seed}
}

// Name implements Filter: the canonical spec, e.g. "randflip(p=0.5,seed=1)".
func (f *RandFlip) Name() string { return spec.Format("randflip", f.Params()) }

// Params implements Configurable.
func (f *RandFlip) Params() []Param {
	return []Param{
		spec.Float("p", "horizontal flip probability", &f.P, 0, 1),
		spec.Uint("seed", "base seed of the per-image decision stream", &f.SeedVal),
	}
}

// Seed implements Stochastic.
func (f *RandFlip) Seed() uint64 { return f.SeedVal }

// WithSeed implements Stochastic.
func (f *RandFlip) WithSeed(seed uint64) Filter {
	c := *f
	c.SeedVal = seed
	return &c
}

// flips reports the (deterministic) flip decision for img.
func (f *RandFlip) flips(img *tensor.Tensor) bool {
	return mathx.NewRNG(ImageSeed(f.SeedVal, img)).Float64() < f.P
}

// Apply implements Filter.
func (f *RandFlip) Apply(img *tensor.Tensor) *tensor.Tensor {
	checkCHW(f.Name(), img)
	if !f.flips(img) {
		return img.Clone()
	}
	return flipH(img)
}

// ApplyBatch implements Filter via the serial fallback (a flip is a copy).
func (f *RandFlip) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return SerialBatch(f, imgs)
}

// VJP implements Filter: the exact adjoint — mirror the upstream
// gradient exactly when the forward pass mirrored x.
func (f *RandFlip) VJP(x, upstream *tensor.Tensor) *tensor.Tensor {
	if !f.flips(x) {
		return upstream.Clone()
	}
	return flipH(upstream)
}

// flipH mirrors a CHW tensor about its vertical axis.
func flipH(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			row := base + y*w
			for x := 0; x < w; x++ {
				od[row+x] = id[row+w-1-x]
			}
		}
	}
	return out
}
