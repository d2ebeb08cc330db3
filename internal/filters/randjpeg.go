package filters

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// RandJPEG is the SHIELD-style randomized JPEG defense (Das et al., KDD
// 2018): every 8×8 block is compressed at a quality factor drawn
// uniformly from [QMin, QMax], so an attacker cannot precompute the
// exact quantization the deployed stage will apply to any region. The
// block qualities are a pure function of (Seed, image) — the per-image
// randomness stream is ImageSeed-derived, making repeated applications
// bit-identical and distinct seeds independent (the Stochastic
// contract).
//
// Like JPEG, the transform is piecewise constant in the input, so its
// VJP is the BPDA straight-through identity.
type RandJPEG struct {
	// QMin and QMax bound the per-block quality draw, 1 ≤ QMin ≤ QMax ≤ 100.
	QMin, QMax int
	// SeedVal is the base of the per-image quality stream.
	SeedVal uint64
}

// NewRandJPEG constructs a randomized JPEG defense.
func NewRandJPEG(qmin, qmax int, seed uint64) *RandJPEG {
	f := &RandJPEG{QMin: qmin, QMax: qmax, SeedVal: seed}
	if err := f.Validate(); err != nil {
		panic("filters: " + err.Error())
	}
	return f
}

// Name implements Filter: the canonical spec, e.g.
// "randjpeg(qmin=20,qmax=80,seed=1)".
func (j *RandJPEG) Name() string { return spec.Format("randjpeg", j.Params()) }

// Params implements Configurable.
func (j *RandJPEG) Params() []Param {
	return []Param{
		spec.Int("qmin", "lower bound of the per-block JPEG quality draw", &j.QMin, 1, 100),
		spec.Int("qmax", "upper bound of the per-block JPEG quality draw", &j.QMax, 1, 100),
		spec.Uint("seed", "base seed of the per-image quality stream", &j.SeedVal),
	}
}

// Validate implements Validator: the quality bounds must be ordered.
func (j *RandJPEG) Validate() error {
	if j.QMin < 1 || j.QMax > 100 || j.QMin > j.QMax {
		return fmt.Errorf("randjpeg: want 1 <= qmin <= qmax <= 100, got qmin=%d qmax=%d", j.QMin, j.QMax)
	}
	return nil
}

// Seed implements Stochastic.
func (j *RandJPEG) Seed() uint64 { return j.SeedVal }

// WithSeed implements Stochastic.
func (j *RandJPEG) WithSeed(seed uint64) Filter {
	c := *j
	c.SeedVal = seed
	return &c
}

// Apply implements Filter. Blocks are visited channel-major, row-major —
// the draw order is part of the determinism contract — each drawing its
// quality from one per-image RNG before running the shared JPEG block
// round trip.
func (j *RandJPEG) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(j.Name(), img)
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	rng := mathx.NewRNG(ImageSeed(j.SeedVal, img))
	span := j.QMax - j.QMin + 1
	var block, coef [64]float64
	// The quality span is at most 100 wide; memoize the tables the draw
	// actually hits instead of rebuilding one per block.
	tables := make(map[int]*[64]float64, span)
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for by := 0; by < h; by += 8 {
			for bx := 0; bx < w; bx += 8 {
				q := j.QMin + rng.IntN(span)
				qt := tables[q]
				if qt == nil {
					t := jpegQuantTableFor(q)
					qt = &t
					tables[q] = qt
				}
				jpegCodeBlock(id, od, base, h, w, by, bx, qt, &block, &coef)
			}
		}
	}
	return out
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool; each image's quality stream is independent, so
// results are bit-identical to serial application.
func (j *RandJPEG) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(j, imgs)
}

// VJP implements Filter using the BPDA straight-through identity, like
// the deterministic JPEG: coefficient rounding has zero derivative
// almost everywhere, and the block-quality draw is piecewise constant in
// the input.
func (j *RandJPEG) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	return upstream.Clone()
}
