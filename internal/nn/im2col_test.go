package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
)

// im2colRef and col2imRef are the per-element lowering the row-copy
// versions replaced, kept as the reference the fast paths must match bit
// for bit: same stored values, same (row, oy, ox) accumulation order.
func im2colRef[T float32 | float64](id []T, ch, h, w int, cd []T, k, stride, pad int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	i := 0
	for cc := 0; cc < ch; cc++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < outH; oy++ {
					sy := oy*stride + ky - pad
					for ox := 0; ox < outW; ox++ {
						sx := ox*stride + kx - pad
						if sy < 0 || sy >= h || sx < 0 || sx >= w {
							cd[i] = 0
						} else {
							cd[i] = id[(cc*h+sy)*w+sx]
						}
						i++
					}
				}
			}
		}
	}
}

func col2imRef(cd, id []float64, ch, h, w, k, stride, pad int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	i := 0
	for cc := 0; cc < ch; cc++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < outH; oy++ {
					sy := oy*stride + ky - pad
					for ox := 0; ox < outW; ox++ {
						sx := ox*stride + kx - pad
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							id[(cc*h+sy)*w+sx] += cd[i]
						}
						i++
					}
				}
			}
		}
	}
}

// checkLowering compares im2col (both element types) and col2im with the
// references on one geometry and checks the adjoint identity
// ⟨im2col(x), u⟩ = ⟨x, col2im(u)⟩. It reports a mismatch as an error
// string so the fuzz target and the table test share it.
func checkLowering(rng *mathx.RNG, ch, h, w, k, stride, pad int) error {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	nImg, nCols := ch*h*w, ch*k*k*outH*outW

	x := make([]float64, nImg)
	x32 := make([]float32, nImg)
	for i := range x {
		x[i] = rng.Range(-1, 1)
		x32[i] = float32(x[i])
	}
	// Poison the destinations: the lowering must write every element,
	// padding included, because Conv2D reuses the buffer across calls.
	got, want := make([]float64, nCols), make([]float64, nCols)
	got32, want32 := make([]float32, nCols), make([]float32, nCols)
	for i := range got {
		got[i], want[i] = math.NaN(), math.NaN()
		got32[i], want32[i] = float32(math.NaN()), float32(math.NaN())
	}
	im2col(x, ch, h, w, got, k, stride, pad)
	im2colRef(x, ch, h, w, want, k, stride, pad)
	im2col(x32, ch, h, w, got32, k, stride, pad)
	im2colRef(x32, ch, h, w, want32, k, stride, pad)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("im2col f64 [%d] = %v, reference %v", i, got[i], want[i])
		}
		if math.Float32bits(got32[i]) != math.Float32bits(want32[i]) {
			return fmt.Errorf("im2col f32 [%d] = %v, reference %v", i, got32[i], want32[i])
		}
	}

	u := make([]float64, nCols)
	for i := range u {
		u[i] = rng.Range(-1, 1)
	}
	// Start from a non-zero image: col2im accumulates, it does not assign.
	back, backRef := make([]float64, nImg), make([]float64, nImg)
	for i := range back {
		back[i] = rng.Range(-1, 1)
		backRef[i] = back[i]
	}
	col2im(u, back, ch, h, w, k, stride, pad)
	col2imRef(u, backRef, ch, h, w, k, stride, pad)
	for i := range backRef {
		if math.Float64bits(back[i]) != math.Float64bits(backRef[i]) {
			return fmt.Errorf("col2im [%d] = %v, reference %v", i, back[i], backRef[i])
		}
	}

	adj := make([]float64, nImg)
	col2im(u, adj, ch, h, w, k, stride, pad)
	var lhs, rhs float64
	for i, v := range got {
		lhs += v * u[i]
	}
	for i, v := range x {
		rhs += v * adj[i]
	}
	if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(lhs)) {
		return fmt.Errorf("adjoint: <im2col(x),u> = %v, <x,col2im(u)> = %v", lhs, rhs)
	}
	return nil
}

func TestIm2colCol2imMatchReference(t *testing.T) {
	rng := mathx.NewRNG(22)
	// Non-square images, down to ones narrower than the kernel, where
	// padding alone makes the geometry valid and whole matrix rows clip.
	sizes := [][2]int{{7, 5}, {5, 9}, {4, 1}, {1, 6}, {2, 2}, {8, 3}}
	cases := 0
	for _, hw := range sizes {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					if err := checkLowering(rng, 2, h, w, k, stride, pad); err != nil {
						t.Fatalf("h=%d w=%d k=%d stride=%d pad=%d: %v", h, w, k, stride, pad, err)
					}
					cases++
				}
			}
		}
	}
	if cases < 60 {
		t.Fatalf("only %d geometries were valid; the table lost its coverage", cases)
	}
}

func FuzzIm2col(f *testing.F) {
	f.Add(uint8(3), uint8(32), uint8(32), uint8(3), uint8(1), uint8(1)) // every VGG conv
	f.Add(uint8(1), uint8(7), uint8(7), uint8(3), uint8(2), uint8(0))
	f.Add(uint8(2), uint8(4), uint8(1), uint8(5), uint8(1), uint8(2)) // kernel wider than the image
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, c, h, w, k, stride, pad uint8) {
		ch, ih, iw := int(c%3)+1, int(h%12)+1, int(w%12)+1
		kk, st, pd := int(k%6)+1, int(stride%3)+1, int(pad%4)
		if ih+2*pd < kk || iw+2*pd < kk {
			t.Skip("kernel exceeds the padded image; Conv2D rejects it")
		}
		seed := uint64(c)<<40 | uint64(h)<<32 | uint64(w)<<24 | uint64(k)<<16 | uint64(stride)<<8 | uint64(pad)
		if err := checkLowering(mathx.NewRNG(seed), ch, ih, iw, kk, st, pd); err != nil {
			t.Fatalf("ch=%d h=%d w=%d k=%d stride=%d pad=%d: %v", ch, ih, iw, kk, st, pd, err)
		}
	})
}
