package filters

import (
	"fmt"
	"math"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// JPEG is a JPEG-like DCT-quantization defense (Dziugaite et al.; Nguyen
// et al.'s "detecting and correcting" catalog): each channel is split
// into 8×8 blocks, transformed with the type-II DCT, quantized with the
// standard JPEG luminance table scaled by the quality factor, and
// reconstructed. Quantization rounds away the high-frequency coefficients
// adversarial perturbations concentrate in, at a visual cost controlled
// by Quality.
//
// The transform is piecewise constant in the input (rounding of DCT
// coefficients), hence non-differentiable almost everywhere; its VJP is
// the BPDA straight-through identity, the standard backward model for
// JPEG defenses.
type JPEG struct {
	// Quality is the JPEG quality factor in [1, 100]; lower quantizes
	// harder (higher robustness, lower fidelity).
	Quality int
}

// NewJPEG constructs a JPEG-like quantization defense.
func NewJPEG(quality int) *JPEG {
	if quality < 1 || quality > 100 {
		panic(fmt.Sprintf("filters: JPEG quality %d outside [1, 100]", quality))
	}
	return &JPEG{Quality: quality}
}

// Name implements Filter: the canonical spec, e.g. "jpeg(q=50)".
func (j *JPEG) Name() string { return spec.Format("jpeg", j.Params()) }

// Params implements Configurable.
func (j *JPEG) Params() []Param {
	return []Param{
		spec.Int("q", "JPEG quality factor; lower quantizes harder", &j.Quality, 1, 100),
	}
}

// jpegLuminanceTable is the standard IJG luminance quantization table.
var jpegLuminanceTable = [64]float64{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// quantTable scales the luminance table by the quality factor, following
// the IJG convention (q<50 scales up, q>50 scales down, entries floored
// into [1, 255]).
func (j *JPEG) quantTable() [64]float64 { return jpegQuantTableFor(j.Quality) }

// jpegQuantTableFor is the quality→table mapping shared by JPEG and the
// per-block randomized RandJPEG.
func jpegQuantTableFor(quality int) [64]float64 {
	scale := 200 - 2*float64(quality)
	if quality < 50 {
		scale = 5000 / float64(quality)
	}
	var q [64]float64
	for i, t := range jpegLuminanceTable {
		v := math.Floor((t*scale + 50) / 100)
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		q[i] = v
	}
	return q
}

// dctCos[x][u] = cos((2x+1)·u·π/16), the 8-point DCT basis.
var dctCos = func() [8][8]float64 {
	var c [8][8]float64
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			c[x][u] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	return c
}()

// dctC(u) is the DCT-II normalization factor.
func dctC(u int) float64 {
	if u == 0 {
		return math.Sqrt2 / 2
	}
	return 1
}

// Apply implements Filter. Each channel is processed independently with
// the luminance table (per-channel grayscale JPEG — no chroma
// subsampling, a documented simplification). Blocks extending past the
// image edge read replicate-padded pixels and write back only the valid
// region. Output is clamped to [0, 1].
func (j *JPEG) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := checkCHW(j.Name(), img)
	out := tensor.New(c, h, w)
	id, od := img.Data(), out.Data()
	qt := j.quantTable()
	var block, coef [64]float64
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for by := 0; by < h; by += 8 {
			for bx := 0; bx < w; bx += 8 {
				jpegCodeBlock(id, od, base, h, w, by, bx, &qt, &block, &coef)
			}
		}
	}
	return out
}

// jpegCodeBlock runs one 8×8 block through the JPEG round trip: gather
// the (replicate-padded) block shifted to the centered [-128, 127]
// range, forward DCT-II, quantize/dequantize against qt, inverse DCT,
// shift back, clamp to [0, 1] and scatter the valid region into od.
// block and coef are caller-owned scratch.
func jpegCodeBlock(id, od []float64, base, h, w, by, bx int, qt, block, coef *[64]float64) {
	for y := 0; y < 8; y++ {
		sy := clampInt(by+y, 0, h-1)
		for x := 0; x < 8; x++ {
			sx := clampInt(bx+x, 0, w-1)
			block[y*8+x] = id[base+sy*w+sx]*255 - 128
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			acc := 0.0
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					acc += block[y*8+x] * dctCos[y][u] * dctCos[x][v]
				}
			}
			f := 0.25 * dctC(u) * dctC(v) * acc
			coef[u*8+v] = math.Floor(f/qt[u*8+v]+0.5) * qt[u*8+v]
		}
	}
	for y := 0; y < 8 && by+y < h; y++ {
		for x := 0; x < 8 && bx+x < w; x++ {
			acc := 0.0
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					acc += dctC(u) * dctC(v) * coef[u*8+v] * dctCos[y][u] * dctCos[x][v]
				}
			}
			p := (0.25*acc + 128) / 255
			if p < 0 {
				p = 0
			}
			if p > 1 {
				p = 1
			}
			od[base+(by+y)*w+bx+x] = p
		}
	}
}

// ApplyBatch implements Filter with one task per image over the
// internal/parallel pool (the blockwise DCT is the heaviest forward in
// the library after NLM).
func (j *JPEG) ApplyBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return parallelBatch(j, imgs)
}

// VJP implements Filter using the BPDA straight-through identity: the
// true Jacobian of coefficient rounding is zero almost everywhere, which
// would blind a filter-aware attacker, so the upstream gradient passes
// through unchanged.
func (j *JPEG) VJP(_, upstream *tensor.Tensor) *tensor.Tensor {
	return upstream.Clone()
}
