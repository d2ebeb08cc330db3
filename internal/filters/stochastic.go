package filters

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// Randomized defenses (randjpeg, randresize, randflip, randnoise) are
// stochastic pipeline stages, but their randomness is declarative, never
// ambient: every draw is a pure function of (seed, image), exactly like
// the Threat-Model-II acquisition noise. Applying the same filter to the
// same image always produces bit-identical output, no matter how many
// goroutines share the instance or in what order they call it — which is
// what keeps batched delivery, the serving layer and the parallel
// experiment engine deterministic. Distinct draws of the randomness (for
// EOT averaging, for an honest defender rotating its seed) come from
// distinct seeds via WithSeed.

// Stochastic is the contract of a randomized filter: its output is a pure
// function of (Seed(), input), and WithSeed derives an independently
// seeded copy so callers — the attacks package's EOT draw factory, a
// defender rotating randomness — can sample fresh draws without mutating
// the deployed instance.
type Stochastic interface {
	Filter
	// Seed returns the base seed of the filter's randomness stream.
	Seed() uint64
	// WithSeed returns a copy of the filter configured identically except
	// for the seed. The receiver is never modified.
	WithSeed(seed uint64) Filter
}

// Reseed returns f with every stochastic stage re-seeded from seed:
// a Stochastic filter becomes WithSeed(seed), a Chain is rebuilt with
// each stochastic stage seeded by DrawSeed(seed, stage-index), and a
// deterministic filter is returned unchanged. The input is never
// modified, so the deployed instance keeps its declared seed.
func Reseed(f Filter, seed uint64) Filter {
	switch t := f.(type) {
	case Stochastic:
		return t.WithSeed(seed)
	case Chain:
		out := make(Chain, len(t))
		for i, stage := range t {
			out[i] = Reseed(stage, DrawSeed(seed, i))
		}
		return out
	default:
		return f
	}
}

// IsStochastic reports whether f (or any stage of a Chain) carries
// randomness — i.e. whether Reseed with a fresh seed can change its
// output.
func IsStochastic(f Filter) bool {
	switch t := f.(type) {
	case Stochastic:
		return true
	case Chain:
		for _, stage := range t {
			if IsStochastic(stage) {
				return true
			}
		}
	}
	return false
}

// DrawSeed derives the seed of one independent draw from a base seed —
// EOT draw k, chain stage i — via a SplitMix64 step, so consecutive
// indices decorrelate completely while staying reproducible.
func DrawSeed(base uint64, draw int) uint64 {
	return mathx.Mix64(base + 0x9e3779b97f4a7c15*uint64(draw+1))
}

// ImageSeed hashes a base seed, the image shape and every pixel's bit
// pattern into the seed of one capture's private randomness stream.
// Identical (seed, image) pairs always map to the same stream; images
// that differ in a single bit decorrelate completely. The mix is one
// multiply-xor round per 64-bit word plus a SplitMix64 finalizer — the
// same construction (and constants) as the acquisition noise stream, so
// both stochastic stages share one audited definition of "pure function
// of (seed, image)".
func ImageSeed(seed uint64, img *tensor.Tensor) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	for _, dim := range img.Shape() {
		mix(uint64(dim))
	}
	for _, v := range img.Data() {
		mix(math.Float64bits(v))
	}
	return mathx.Mix64(h)
}
