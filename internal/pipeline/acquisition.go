// Package pipeline models the paper's ML inference pipeline — data
// acquisition → pre-processing noise filter → input buffer → DNN — and the
// three threat models of Fig. 2 that differ in where the adversarial
// perturbation enters that pipeline.
package pipeline

import (
	"fmt"

	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/tensor"
)

// Acquisition simulates the data-capture hardware that Threat Model II
// routes a physical-world perturbation through: exposure gain, additive
// sensor noise, and 8-bit quantization. It stands in for the camera the
// paper's TM II assumes (listed under "Departures from the paper" in
// ARCHITECTURE.md).
//
// Acquisition implements the filters.Filter interface so a filter-aware
// attacker can fold it into the differentiable pipeline: gain is exact;
// quantization and noise use the BPDA identity on the backward pass.
//
// Apply is a pure function: the sensor-noise stream is derived from the
// seed plus the image content, never from mutable generator state, so
// capturing the same image twice gives bit-identical output no matter how
// many goroutines share the Acquisition or in what order they call it.
// This is what keeps concurrent TM-II delivery (the serving layer, the
// parallel experiment engine) bit-identical to a serial run. Distinct
// draws of the noise — e.g. for EOT averaging — come from distinct seeds.
type Acquisition struct {
	// Gain multiplies pixel values (exposure); 1 is neutral.
	Gain float64
	// NoiseStd is the additive Gaussian sensor-noise sigma (0 disables).
	NoiseStd float64
	// Quantize rounds to 8-bit levels when true.
	Quantize bool
	// seed is the base of the per-image noise stream.
	seed uint64
}

// NewAcquisition builds a capture model. seed drives the sensor noise.
func NewAcquisition(gain, noiseStd float64, quantize bool, seed uint64) *Acquisition {
	if gain <= 0 {
		panic(fmt.Sprintf("pipeline: acquisition gain %v must be positive", gain))
	}
	if noiseStd < 0 {
		panic(fmt.Sprintf("pipeline: acquisition noise %v must be non-negative", noiseStd))
	}
	return &Acquisition{Gain: gain, NoiseStd: noiseStd, Quantize: quantize, seed: seed}
}

// DefaultAcquisition is the experiment default: neutral gain, one LSB of
// sensor noise, 8-bit quantization.
func DefaultAcquisition(seed uint64) *Acquisition {
	return NewAcquisition(1.0, 1.0/255, true, seed)
}

// Name implements filters.Filter.
func (a *Acquisition) Name() string {
	q := ""
	if a.Quantize {
		q = ",8bit"
	}
	return fmt.Sprintf("Acq(g=%.2g,σ=%.2g%s)", a.Gain, a.NoiseStd, q)
}

// Apply implements filters.Filter: capture the image. Safe for concurrent
// use — the noise stream is a pure function of the seed and the image.
func (a *Acquisition) Apply(img *tensor.Tensor) *tensor.Tensor {
	out := img.Clone()
	d := out.Data()
	var rng *mathx.RNG
	if a.NoiseStd > 0 {
		rng = mathx.NewRNG(a.noiseSeed(img))
	}
	for i := range d {
		v := d[i] * a.Gain
		if rng != nil {
			v += rng.NormScaled(0, a.NoiseStd)
		}
		v = mathx.Clamp01(v)
		if a.Quantize {
			v = quantize8(v)
		}
		d[i] = v
	}
	return out
}

// ApplyBatch implements filters.Filter via the serial fallback: capture
// is cheap relative to filtering and inference, and each image's noise
// stream is independent of the others.
func (a *Acquisition) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return filters.SerialBatch(a, imgs)
}

// noiseSeed hashes the base seed, the image shape and every pixel's bit
// pattern into the seed of this capture's private noise stream — the
// shared filters.ImageSeed construction (identical constants, so the
// stream is bit-for-bit what this package computed before the randomized
// filter family factored the hash out).
func (a *Acquisition) noiseSeed(img *tensor.Tensor) uint64 {
	return filters.ImageSeed(a.seed, img)
}

// Seed implements filters.Stochastic.
func (a *Acquisition) Seed() uint64 { return a.seed }

// WithSeed implements filters.Stochastic: an identically configured
// capture whose sensor-noise stream starts from seed. The receiver is
// never modified, so the deployed instance keeps its declared seed.
func (a *Acquisition) WithSeed(seed uint64) filters.Filter {
	c := *a
	c.seed = seed
	return &c
}

// VJP implements filters.Filter. Gain is differentiated exactly;
// quantization and noise injection use the BPDA identity (their true
// derivative is zero almost everywhere, which would blind the attacker).
func (a *Acquisition) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	out := upstream.Clone()
	if a.Gain != 1 {
		out.ScaleInPlace(a.Gain)
	}
	return out
}

// quantize8 rounds v∈[0,1] to the nearest of 256 levels.
func quantize8(v float64) float64 {
	return float64(int(v*255+0.5)) / 255
}
