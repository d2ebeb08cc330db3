package nn

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b for inputs of
// shape [N, In] and weights of shape [Out, In].
type Dense struct {
	name    string
	In, Out int
	W, B    *Param

	x     *tensor.Tensor // cached input for backward
	train bool           // last Forward's mode: Backward skips dW/db after eval
}

// NewDense constructs a fully connected layer with He-normal weight
// initialization (appropriate for the ReLU networks built here) and zero
// biases.
func NewDense(name string, in, out int, rng *mathx.RNG) *Dense {
	w := tensor.New(out, in)
	w.FillHeNormal(rng, in)
	return &Dense{
		name: name,
		In:   in,
		Out:  out,
		W:    newParam(name+"/W", w),
		B:    newParam(name+"/b", tensor.New(out)),
	}
}

// NewDenseXavier constructs a fully connected layer with Xavier-uniform
// initialization, the conventional choice for a softmax classifier head.
func NewDenseXavier(name string, in, out int, rng *mathx.RNG) *Dense {
	d := NewDense(name, in, out, rng)
	d.W.Value.FillXavierUniform(rng, in, out)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// CloneLayer implements Cloner: the clone shares W and B values but owns
// its own input cache and gradient accumulators.
func (d *Dense) CloneLayer() Layer {
	return &Dense{
		name: d.name,
		In:   d.In,
		Out:  d.Out,
		W:    d.W.ShareValue(),
		B:    d.B.ShareValue(),
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutShape implements OutputShaper.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.In {
		return nil, shapeErr(d.name, in, fmt.Sprintf("want [%d]", d.In))
	}
	return []int{d.Out}, nil
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s: Forward input shape %v, want [N %d]", d.name, x.Shape(), d.In))
	}
	d.x, d.train = x, train
	// y[n,o] = Σ_i x[n,i]·W[o,i] + b[o]
	y := tensor.MatMulTransB(x, d.W.Value)
	n := x.Dim(0)
	b := d.B.Value.Data()
	yd := y.Data()
	for r := 0; r < n; r++ {
		row := yd[r*d.Out : (r+1)*d.Out]
		for o := range row {
			row[o] += b[o]
		}
	}
	return y
}

// Backward implements Layer. After an eval-mode Forward it returns the
// input gradient only (see Conv2D.Backward).
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if d.train {
		// dW[o,i] += Σ_n dout[n,o]·x[n,i], accumulated straight into the
		// gradient — no intermediate product tensor.
		tensor.MatMulAccumTransA(d.W.Grad, dout, d.x)
		// db[o] += Σ_n dout[n,o]
		n, out := dout.Dim(0), dout.Dim(1)
		db := d.B.Grad.Data()
		dd := dout.Data()
		for r := 0; r < n; r++ {
			row := dd[r*out : (r+1)*out]
			for o := range row {
				db[o] += row[o]
			}
		}
	}
	// dx[n,i] = Σ_o dout[n,o]·W[o,i]
	return tensor.MatMul(dout, d.W.Value)
}
