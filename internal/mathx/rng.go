// Package mathx provides deterministic random number generation and small
// numeric utilities shared by every other package in the repository.
//
// All stochastic components in the reproduction (weight initialization,
// dataset jitter, sensor noise, attack restarts) draw from mathx.RNG so that
// every experiment is reproducible bit-for-bit from a single integer seed.
package mathx

import "math/rand/v2"

// RNG is a deterministic pseudo-random source backed by PCG. Unlike the
// global math/rand functions its stream is stable across Go releases for a
// fixed seed, which the experiment harness relies on.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a generator seeded with seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Range returns a uniform sample in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Norm returns a standard normal sample (mean 0, stddev 1).
func (r *RNG) Norm() float64 { return r.src.NormFloat64() }

// NormScaled returns a normal sample with the given mean and stddev.
func (r *RNG) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes the first n indices using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }
