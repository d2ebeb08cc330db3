// Package nn is a from-scratch neural-network substrate: convolution,
// pooling, dense, activation, normalization and dropout layers with full
// backpropagation, loss functions, a sequential network container, weight
// serialization, and the VGGNet topology used by the FAdeML paper (five
// convolutional blocks followed by one fully connected classifier).
//
// Everything operates on batched NCHW tensors ([N, C, H, W] for images,
// [N, D] for features) in float64. Layers follow a strict Forward/Backward
// contract: Backward consumes the gradient of the loss with respect to the
// layer's most recent Forward output and returns the gradient with respect
// to that Forward's input. The input gradient is always propagated — even
// past the first layer — because the adversarial attacks in this repository
// differentiate the loss with respect to the image itself.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	// Name identifies the parameter for serialization, e.g. "conv1/W".
	Name string
	// Value holds the current weights.
	Value *tensor.Tensor
	// Grad accumulates dLoss/dValue between optimizer steps.
	Grad *tensor.Tensor
}

// newParam allocates a parameter and a zeroed gradient of the same shape.
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ShareValue returns a Param that aliases the same weight tensor but owns
// a private, zeroed gradient accumulator. Network.Clone uses it so a
// clone sees every weight update made to the original (the Value storage
// is shared) while concurrent Backward passes never race on Grad.
func (p *Param) ShareValue() *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: tensor.New(p.Value.Shape()...)}
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Name returns the layer's unique name within its network.
	Name() string
	// Forward computes the layer output for a batch. train selects
	// training-time behaviour (dropout masks, batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dLoss/dOutput for the most recent Forward call and
	// returns dLoss/dInput. It accumulates parameter gradients only if that
	// Forward ran with train set; dLoss/dInput does not depend on the flag
	// wherever both modes compute the same function.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters, or nil for stateless layers.
	Params() []*Param
}

// Cloner is implemented by layers that can produce a weight-sharing copy
// of themselves. The clone aliases the original's parameter values (so it
// tracks optimizer updates for free) but owns every piece of per-call
// state — im2col buffers, activation masks, argmax tables, gradient
// accumulators — so the original and any number of clones can run
// Forward/Backward concurrently. All built-in layers implement Cloner.
type Cloner interface {
	CloneLayer() Layer
}

// scratch returns a tensor of the given shape backed by *buf, growing the
// buffer only when capacity is insufficient. It is the allocation-reuse
// primitive behind the per-layer scratch state: each layer instance owns
// its buffers, so reuse is safe as long as a single instance is not used
// from two goroutines (which is what Network.Clone exists for).
func scratch(buf *[]float64, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return tensor.FromSlice(*buf, shape...)
}

// OutputShaper is implemented by layers that can statically report their
// output shape for a given input shape (both without the batch dimension).
// The network uses it to validate topologies at construction time.
type OutputShaper interface {
	OutShape(in []int) ([]int, error)
}

func shapeErr(layer string, in []int, msg string) error {
	return fmt.Errorf("nn: %s with input shape %v: %s", layer, in, msg)
}
