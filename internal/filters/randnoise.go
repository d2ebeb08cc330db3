package filters

import (
	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// RandNoise is the additive-Gaussian randomization defense: each pixel
// receives an independent N(0, Sigma²) sample before the clamp back into
// [0, 1], washing out the precisely tuned perturbations gradient attacks
// produce. The noise stream is a pure function of (Seed, image) — the
// Stochastic contract — so the deployed stage is deterministic per input
// while fresh seeds give independent draws.
type RandNoise struct {
	// Sigma is the noise standard deviation (in pixel units).
	Sigma float64
	// SeedVal is the base of the per-image noise stream.
	SeedVal uint64
}

// NewRandNoise constructs an additive-noise defense.
func NewRandNoise(sigma float64, seed uint64) *RandNoise {
	if !(sigma > 0) {
		panic("filters: randnoise sigma must be positive")
	}
	return &RandNoise{Sigma: sigma, SeedVal: seed}
}

// Name implements Filter: the canonical spec, e.g.
// "randnoise(sigma=0.05,seed=1)".
func (n *RandNoise) Name() string { return spec.Format("randnoise", n.Params()) }

// Params implements Configurable.
func (n *RandNoise) Params() []Param {
	return []Param{
		spec.Float("sigma", "additive Gaussian noise stddev in pixel units",
			&n.Sigma, spec.MinPositive, 10),
		spec.Uint("seed", "base seed of the per-image noise stream", &n.SeedVal),
	}
}

// Seed implements Stochastic.
func (n *RandNoise) Seed() uint64 { return n.SeedVal }

// WithSeed implements Stochastic.
func (n *RandNoise) WithSeed(seed uint64) Filter {
	c := *n
	c.SeedVal = seed
	return &c
}

// Apply implements Filter: out = clamp01(x + sigma·N), with the noise
// stream seeded by ImageSeed(Seed, img).
func (n *RandNoise) Apply(img *tensor.Tensor) *tensor.Tensor {
	checkCHW(n.Name(), img)
	out := img.Clone()
	d := out.Data()
	rng := mathx.NewRNG(ImageSeed(n.SeedVal, img))
	for i := range d {
		d[i] = mathx.Clamp01(d[i] + rng.NormScaled(0, n.Sigma))
	}
	return out
}

// ApplyBatch implements Filter via the serial fallback: per-pixel noise
// is too cheap to justify fan-out, and each image's stream is
// independent of the others.
func (n *RandNoise) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return SerialBatch(n, imgs)
}

// VJP implements Filter: additive noise has an exact identity Jacobian
// wherever the [0, 1] clamp is inactive; at saturated pixels the true
// derivative is zero and the straight-through (BPDA) convention passes
// the upstream gradient unchanged — the same backward model the
// acquisition stage uses for its clamp.
func (n *RandNoise) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	return upstream.Clone()
}
