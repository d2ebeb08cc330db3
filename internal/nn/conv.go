package nn

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// Conv2D is a 2-d convolution over NCHW batches, implemented with the
// classic im2col lowering so both forward and backward passes reduce to
// matrix multiplication.
//
// Weights have shape [OutC, InC·K·K]; each output channel is one row.
type Conv2D struct {
	name                        string
	InC, OutC                   int
	K, Stride, Pad              int
	W, B                        *Param
	inH, inW, outH, outW, batch int
	train                       bool // last Forward's mode: Backward skips dW/db after eval

	// Per-call scratch owned by this instance and reused across calls so
	// the attack loops don't re-allocate the im2col matrix thousands of
	// times. Clones (Network.Clone) get their own scratch, which is what
	// makes a cloned network safe for concurrent inference.
	cols     *tensor.Tensor // cached im2col matrix [N, patch, outH·outW]
	colsBuf  []float64
	yBuf     []float64 // forward matmul output [OutC, outH·outW]
	dcolsBuf []float64 // backward dcols [patch, outH·outW]
}

// NewConv2D constructs a convolution layer with He-normal initialization.
// kernel must be positive, stride positive, pad non-negative.
func NewConv2D(name string, inC, outC, kernel, stride, pad int, rng *mathx.RNG) *Conv2D {
	if kernel <= 0 || stride <= 0 || pad < 0 || inC <= 0 || outC <= 0 {
		panic(fmt.Sprintf("nn: NewConv2D(%s) invalid geometry k=%d s=%d p=%d inC=%d outC=%d",
			name, kernel, stride, pad, inC, outC))
	}
	fanIn := inC * kernel * kernel
	w := tensor.New(outC, fanIn)
	w.FillHeNormal(rng, fanIn)
	return &Conv2D{
		name:   name,
		InC:    inC,
		OutC:   outC,
		K:      kernel,
		Stride: stride,
		Pad:    pad,
		W:      newParam(name+"/W", w),
		B:      newParam(name+"/b", tensor.New(outC)),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// CloneLayer implements Cloner: the clone shares W and B values but owns
// its own scratch buffers and gradient accumulators.
func (c *Conv2D) CloneLayer() Layer {
	return &Conv2D{
		name: c.name,
		InC:  c.InC, OutC: c.OutC,
		K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: c.W.ShareValue(), B: c.B.ShareValue(),
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutShape implements OutputShaper.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, shapeErr(c.name, in, fmt.Sprintf("want [%d H W]", c.InC))
	}
	oh := (in[1]+2*c.Pad-c.K)/c.Stride + 1
	ow := (in[2]+2*c.Pad-c.K)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, shapeErr(c.name, in, "kernel larger than padded input")
	}
	return []int{c.OutC, oh, ow}, nil
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s: Forward input shape %v, want [N %d H W]", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.batch, c.inH, c.inW, c.train = n, h, w, train
	c.outH = (h+2*c.Pad-c.K)/c.Stride + 1
	c.outW = (w+2*c.Pad-c.K)/c.Stride + 1
	if c.outH <= 0 || c.outW <= 0 {
		panic(fmt.Sprintf("nn: %s: kernel %d exceeds padded input %dx%d", c.name, c.K, h, w))
	}
	patch := c.InC * c.K * c.K
	spatial := c.outH * c.outW
	chw := c.InC * h * w
	c.cols = scratch(&c.colsBuf, n, patch, spatial)
	xd, cd := x.Data(), c.cols.Data()

	out := tensor.New(n, c.OutC, c.outH, c.outW)
	bd := c.B.Value.Data()
	y := scratch(&c.yBuf, c.OutC, spatial)
	for s := 0; s < n; s++ {
		col := cd[s*patch*spatial : (s+1)*patch*spatial]
		im2col(xd[s*chw:(s+1)*chw], c.InC, h, w, col, c.K, c.Stride, c.Pad)
		tensor.MatMulInto(y, c.W.Value, tensor.FromSlice(col, patch, spatial)) // [OutC, spatial]
		dst := out.Data()[s*c.OutC*spatial : (s+1)*c.OutC*spatial]
		yd := y.Data()
		for f := 0; f < c.OutC; f++ {
			b := bd[f]
			row := yd[f*spatial : (f+1)*spatial]
			drow := dst[f*spatial : (f+1)*spatial]
			for i, v := range row {
				drow[i] = v + b
			}
		}
	}
	return out
}

// Backward implements Layer. After an eval-mode Forward it returns the
// input gradient only: dW and db are what a trainer needs, and an attack's
// gradient query would pay a GEMM per image per layer for them.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	n := c.batch
	patch := c.InC * c.K * c.K
	spatial := c.outH * c.outW
	chw := c.InC * c.inH * c.inW
	dx := tensor.New(n, c.InC, c.inH, c.inW)
	dxd, cd := dx.Data(), c.cols.Data()
	dbd := c.B.Grad.Data()
	dcols := scratch(&c.dcolsBuf, patch, spatial)
	for s := 0; s < n; s++ {
		doutMat := tensor.FromSlice(
			dout.Data()[s*c.OutC*spatial:(s+1)*c.OutC*spatial], c.OutC, spatial)
		if c.train {
			colMat := tensor.FromSlice(cd[s*patch*spatial:(s+1)*patch*spatial], patch, spatial)
			// dW[f,p] += Σ_i dout[f,i]·cols[p,i], fused — no materialized
			// transpose of the im2col matrix.
			tensor.MatMulAccumTransB(c.W.Grad, doutMat, colMat)
			// db[f] += Σ_i dout[f,i]
			dd := doutMat.Data()
			for f := 0; f < c.OutC; f++ {
				s := 0.0
				for _, v := range dd[f*spatial : (f+1)*spatial] {
					s += v
				}
				dbd[f] += s
			}
		}
		// dcols = Wᵀ·dout, then scatter back to image layout.
		tensor.MatMulTransAInto(dcols, c.W.Value, doutMat) // [patch, spatial]
		col2im(dcols.Data(), dxd[s*chw:(s+1)*chw], c.InC, c.inH, c.inW, c.K, c.Stride, c.Pad)
	}
	return dx
}

// im2col lowers a CHW image (raw storage id) into the [ch·k·k, outH·outW]
// matrix cd where column i holds the receptive field of output position i.
// Out-of-bounds (padding) positions contribute zeros. It serves both
// precision lanes. At stride 1 a (channel, ky, kx, oy) row of the matrix is
// a contiguous run of the image row clipped to [lo, hi), so it moves as one
// copy; other strides test bounds per element.
func im2col[T float32 | float64](id []T, ch, h, w int, cd []T, k, stride, pad int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	spatial := outH * outW
	row := 0
	for cc := 0; cc < ch; cc++ {
		base := cc * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cd[row*spatial : (row+1)*spatial]
				row++
				lo, hi := clipRun(outW, w, kx-pad)
				if stride == 1 && lo == hi {
					clear(dst)
					continue
				}
				for oy := 0; oy < outH; oy++ {
					out := dst[oy*outW : (oy+1)*outW]
					sy := oy*stride + ky - pad
					if sy < 0 || sy >= h {
						clear(out)
						continue
					}
					src := id[base+sy*w : base+(sy+1)*w]
					if stride == 1 {
						clear(out[:lo])
						copy(out[lo:hi], src[lo+kx-pad:])
						clear(out[hi:])
						continue
					}
					for ox := range out {
						if sx := ox*stride + kx - pad; sx < 0 || sx >= w {
							out[ox] = 0
						} else {
							out[ox] = src[sx]
						}
					}
				}
			}
		}
	}
}

// col2im scatters a [ch·k·k, outH·outW] gradient matrix back into CHW image
// layout, accumulating where receptive fields overlap. It is the exact
// adjoint of im2col and visits (row, oy, ox) in the same order at every
// stride, so each image element sees one fixed accumulation order.
func col2im(cd, id []float64, ch, h, w, k, stride, pad int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	spatial := outH * outW
	row := 0
	for cc := 0; cc < ch; cc++ {
		base := cc * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cd[row*spatial : (row+1)*spatial]
				row++
				lo, hi := clipRun(outW, w, kx-pad)
				if stride == 1 && lo == hi {
					continue
				}
				for oy := 0; oy < outH; oy++ {
					sy := oy*stride + ky - pad
					if sy < 0 || sy >= h {
						continue
					}
					in := src[oy*outW : (oy+1)*outW]
					dst := id[base+sy*w : base+(sy+1)*w]
					if stride == 1 {
						run := dst[lo+kx-pad:]
						for j, v := range in[lo:hi] {
							run[j] += v
						}
						continue
					}
					for ox, v := range in {
						if sx := ox*stride + kx - pad; sx >= 0 && sx < w {
							dst[sx] += v
						}
					}
				}
			}
		}
	}
}

// clipRun returns the output columns [lo, hi) of a stride-1 row whose
// source column ox+off lies inside an image row of width w; lo == hi when
// the whole row is padding.
func clipRun(outW, w, off int) (lo, hi int) {
	lo, hi = max(0, -off), min(outW, w-off)
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}
