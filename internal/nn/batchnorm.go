package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and
// unit variance using batch statistics during training and exponential
// running statistics during inference, followed by a learned affine
// transform (gamma, beta).
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float64
	Momentum float64

	Gamma, Beta *Param
	// Running statistics are state, not trainable parameters; they are
	// serialized alongside weights through StateTensors.
	RunMean, RunVar *tensor.Tensor

	// caches for backward
	xHat    *tensor.Tensor
	invStd  []float64
	n, h, w int
	train   bool // last Forward's mode: selects Backward's formula
}

// NewBatchNorm2D constructs a batch-normalization layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	if c <= 0 {
		panic(fmt.Sprintf("nn: NewBatchNorm2D(%s) channels %d", name, c))
	}
	runVar := tensor.New(c)
	runVar.Fill(1)
	return &BatchNorm2D{
		name:     name,
		C:        c,
		Eps:      1e-5,
		Momentum: 0.9,
		Gamma:    newParam(name+"/gamma", tensor.Full(1, c)),
		Beta:     newParam(name+"/beta", tensor.New(c)),
		RunMean:  tensor.New(c),
		RunVar:   runVar,
	}
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// CloneLayer implements Cloner. The clone shares gamma/beta values and the
// running-statistics tensors (inference only reads them); concurrent
// *training* of original and clone is not supported — training-mode
// Forward writes the shared running statistics.
func (b *BatchNorm2D) CloneLayer() Layer {
	return &BatchNorm2D{
		name:     b.name,
		C:        b.C,
		Eps:      b.Eps,
		Momentum: b.Momentum,
		Gamma:    b.Gamma.ShareValue(),
		Beta:     b.Beta.ShareValue(),
		RunMean:  b.RunMean,
		RunVar:   b.RunVar,
	}
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// StateTensors returns the non-trainable running statistics for
// serialization: names paired with tensors.
func (b *BatchNorm2D) StateTensors() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		b.name + "/run_mean": b.RunMean,
		b.name + "/run_var":  b.RunVar,
	}
}

// OutShape implements OutputShaper.
func (b *BatchNorm2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.C {
		return nil, shapeErr(b.name, in, fmt.Sprintf("want [%d H W]", b.C))
	}
	return in, nil
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != b.C {
		panic(fmt.Sprintf("nn: %s: Forward input shape %v, want [N %d H W]", b.name, x.Shape(), b.C))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	b.n, b.h, b.w, b.train = n, h, w, train
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	plane := h * w
	count := float64(n * plane)

	if cap(b.invStd) < b.C {
		b.invStd = make([]float64, b.C)
	}
	b.invStd = b.invStd[:b.C]
	b.xHat = tensor.New(x.Shape()...)
	xh := b.xHat.Data()

	for c := 0; c < b.C; c++ {
		var mean, varv float64
		if train {
			sum := 0.0
			for s := 0; s < n; s++ {
				base := (s*b.C + c) * plane
				for i := 0; i < plane; i++ {
					sum += xd[base+i]
				}
			}
			mean = sum / count
			sq := 0.0
			for s := 0; s < n; s++ {
				base := (s*b.C + c) * plane
				for i := 0; i < plane; i++ {
					d := xd[base+i] - mean
					sq += d * d
				}
			}
			varv = sq / count
			rm, rv := b.RunMean.Data(), b.RunVar.Data()
			rm[c] = b.Momentum*rm[c] + (1-b.Momentum)*mean
			rv[c] = b.Momentum*rv[c] + (1-b.Momentum)*varv
		} else {
			mean = b.RunMean.Data()[c]
			varv = b.RunVar.Data()[c]
		}
		inv := 1 / math.Sqrt(varv+b.Eps)
		b.invStd[c] = inv
		g, be := gd[c], bd[c]
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * plane
			for i := 0; i < plane; i++ {
				xn := (xd[base+i] - mean) * inv
				xh[base+i] = xn
				od[base+i] = g*xn + be
			}
		}
	}
	return out
}

// Backward implements Layer. After a training-mode Forward it is the
// standard batch-norm gradient through the batch statistics. After an
// eval-mode Forward the layer was the affine map γ·(x−μ_run)·invStd + β,
// so dx = γ·invStd·dy and, as for every layer, no parameter gradient is
// written.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if b.xHat == nil {
		panic("nn: BatchNorm2D.Backward before Forward")
	}
	n, h, w := b.n, b.h, b.w
	plane := h * w
	count := float64(n * plane)
	dx := tensor.New(dout.Shape()...)
	dd, dxd, xh := dout.Data(), dx.Data(), b.xHat.Data()
	gd := b.Gamma.Value.Data()
	dgd, dbd := b.Gamma.Grad.Data(), b.Beta.Grad.Data()

	for c := 0; c < b.C; c++ {
		scale := gd[c] * b.invStd[c]
		if !b.train {
			for s := 0; s < n; s++ {
				base := (s*b.C + c) * plane
				for i := 0; i < plane; i++ {
					dxd[base+i] = scale * dd[base+i]
				}
			}
			continue
		}
		var sumDy, sumDyXh float64
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * plane
			for i := 0; i < plane; i++ {
				dy := dd[base+i]
				sumDy += dy
				sumDyXh += dy * xh[base+i]
			}
		}
		dgd[c] += sumDyXh
		dbd[c] += sumDy
		for s := 0; s < n; s++ {
			base := (s*b.C + c) * plane
			for i := 0; i < plane; i++ {
				dy := dd[base+i]
				dxd[base+i] = scale * (dy - sumDy/count - xh[base+i]*sumDyXh/count)
			}
		}
	}
	return dx
}
