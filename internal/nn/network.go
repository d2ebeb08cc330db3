package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Network is a sequential stack of layers with helpers for inference,
// training and — crucially for this repository — differentiating the loss
// with respect to the *input image*, which is what every gradient-based
// adversarial attack consumes.
type Network struct {
	name    string
	layers  []Layer
	inShape []int // expected input shape without the batch dimension

	// inBuf backs the stacked input batch of the *Batch inference surface.
	// Like the per-layer scratch buffers it is owned by this instance
	// (clones grow their own), which keeps batched inference on clones
	// safe for concurrent use.
	inBuf []float64
}

// NewNetwork builds a sequential network. inShape is the per-sample input
// shape (e.g. [3, 32, 32]); it is threaded through every layer that
// implements OutputShaper to validate the topology eagerly, so a malformed
// stack fails at construction rather than mid-training.
func NewNetwork(name string, inShape []int, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", name)
	}
	seen := make(map[string]bool)
	shape := append([]int(nil), inShape...)
	for _, l := range layers {
		if seen[l.Name()] {
			return nil, fmt.Errorf("nn: network %q has duplicate layer name %q", name, l.Name())
		}
		seen[l.Name()] = true
		if os, ok := l.(OutputShaper); ok {
			next, err := os.OutShape(shape)
			if err != nil {
				return nil, err
			}
			shape = next
		}
	}
	return &Network{name: name, layers: layers, inShape: append([]int(nil), inShape...)}, nil
}

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// Clone returns a copy of the network that shares trained weight values
// with the original but owns every piece of per-call state (layer scratch
// buffers, activation caches, gradient accumulators). Original and clones
// may run Forward, Backward, Probs and LossAndInputGrad concurrently —
// this is the primitive the parallel experiment engine builds worker
// pools from. Weight updates applied to the original (optimizer steps,
// LoadWeights) are visible to clones because the Param values alias the
// same storage; do not train concurrently with cloned inference.
//
// Clone panics if any layer does not implement Cloner (all built-in
// layers do). Clone never copies weights, but it does allocate a zeroed
// gradient accumulator per parameter (one full parameter-memory's worth),
// so reuse clones across evaluations (train.Clones feeding train.Evaluate,
// the experiment engine's worker-net cache) rather than cloning per call.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		c, ok := l.(Cloner)
		if !ok {
			panic(fmt.Sprintf("nn: network %q layer %q (%T) does not implement Cloner", n.name, l.Name(), l))
		}
		layers[i] = c.CloneLayer()
	}
	return &Network{name: n.name, layers: layers, inShape: append([]int(nil), n.inShape...)}
}

// InputShape returns the per-sample input shape the network was built for.
func (n *Network) InputShape() []int { return append([]int(nil), n.inShape...) }

// Layers returns the layer stack (callers must not mutate it).
func (n *Network) Layers() []Layer { return n.layers }

// OutputClasses returns the width of the final layer's output, i.e. the
// number of classes for a classifier topology.
func (n *Network) OutputClasses() int {
	shape := n.inShape
	for _, l := range n.layers {
		if os, ok := l.(OutputShaper); ok {
			next, err := os.OutShape(shape)
			if err != nil {
				panic(err)
			}
			shape = next
		}
	}
	if len(shape) != 1 {
		panic(fmt.Sprintf("nn: network %q output shape %v is not a class vector", n.name, shape))
	}
	return shape[0]
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// Forward runs the full stack on a batch. train selects training-time layer
// behaviour. The returned tensor is the logits batch [N, C].
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out, train)
	}
	return out
}

// Backward propagates dLoss/dLogits back through the stack and returns
// dLoss/dInput in a freshly allocated, caller-owned tensor. Parameter
// gradients are accumulated only when the preceding Forward ran in training
// mode; after an eval-mode Forward the pass yields the input gradient alone,
// with the same bits (every layer computes one function in both modes).
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	g := dout
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g)
	}
	return g
}

// Logits runs inference (eval mode) for a single CHW image and returns the
// class-score vector as a caller-owned slice.
func (n *Network) Logits(img *tensor.Tensor) []float64 {
	batch := n.asBatch(img)
	out := n.Forward(batch, false)
	return append([]float64(nil), out.Row(0).Data()...)
}

// Probs runs inference for a single CHW image and returns softmax
// probabilities. The softmax is computed straight from the forward
// output's row into one fresh slice — no intermediate logits copy.
func (n *Network) Probs(img *tensor.Tensor) []float64 {
	batch := n.asBatch(img)
	out := n.Forward(batch, false)
	row := out.Row(0).Data()
	return SoftmaxInto(make([]float64, len(row)), row)
}

// stackBatch copies a slice of CHW images into one [N, C, H, W] batch
// tensor backed by the network's reusable input buffer, validating every
// image's shape. The returned tensor is valid until the next *Batch call
// on this network.
func (n *Network) stackBatch(imgs []*tensor.Tensor) *tensor.Tensor {
	per := 1
	for _, d := range n.inShape {
		per *= d
	}
	batch := scratch(&n.inBuf, append([]int{len(imgs)}, n.inShape...)...)
	bd := batch.Data()
	for s, img := range imgs {
		got := img.Shape()
		ok := len(got) == len(n.inShape)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i] == n.inShape[i]
		}
		if !ok {
			panic(fmt.Sprintf("nn: network %q expects input shape %v, got %v (batch slot %d)", n.name, n.inShape, got, s))
		}
		copy(bd[s*per:(s+1)*per], img.Data())
	}
	return batch
}

// LogitsBatch runs eval-mode inference for a slice of CHW images through
// one batched Forward pass and returns one caller-owned logits slice per
// image. Every layer processes batch rows independently in eval mode, so
// each returned row is bit-identical to a batch-of-1 Logits call — the
// batching only amortizes per-call dispatch and allocation overhead. This
// is the scoring primitive behind batched evaluation and the query-based
// (one-pixel DE) attack.
func (n *Network) LogitsBatch(imgs []*tensor.Tensor) [][]float64 {
	if len(imgs) == 0 {
		return nil
	}
	out := n.Forward(n.stackBatch(imgs), false)
	c := out.Dim(1)
	flat := make([]float64, len(imgs)*c)
	copy(flat, out.Data())
	rows := make([][]float64, len(imgs))
	for i := range rows {
		// Full slice expression: rows are handed to independent owners
		// (serving clients), so cap each one at its own region — an
		// append must reallocate, never bleed into the next row.
		rows[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	return rows
}

// ProbsBatch is LogitsBatch followed by a per-row softmax, applied
// directly from the forward output into one flat result block (a single
// allocation for the whole batch's probabilities).
func (n *Network) ProbsBatch(imgs []*tensor.Tensor) [][]float64 {
	if len(imgs) == 0 {
		return nil
	}
	out := n.Forward(n.stackBatch(imgs), false)
	c := out.Dim(1)
	od := out.Data()
	flat := make([]float64, len(imgs)*c)
	rows := make([][]float64, len(imgs))
	for i := range rows {
		rows[i] = SoftmaxInto(flat[i*c:(i+1)*c:(i+1)*c], od[i*c:(i+1)*c])
	}
	return rows
}

// PredictBatch returns the argmax class and its probability for every
// image, evaluated through one batched forward pass.
func (n *Network) PredictBatch(imgs []*tensor.Tensor) (classes []int, probs []float64) {
	rows := n.ProbsBatch(imgs)
	classes = make([]int, len(rows))
	probs = make([]float64, len(rows))
	for i, p := range rows {
		best := 0
		for j, v := range p {
			if v > p[best] {
				best = j
			}
		}
		classes[i], probs[i] = best, p[best]
	}
	return classes, probs
}

// Predict returns the argmax class and its probability for a single image.
func (n *Network) Predict(img *tensor.Tensor) (class int, prob float64) {
	probs := n.Probs(img)
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs[best]
}

// LossAndInputGrad computes loss(network(img), label) and its gradient with
// respect to the image, the primitive consumed by every gradient-based
// attack. The image is promoted to a batch of one and run in eval mode, so
// the query does the attacker's work only: no Param.Grad is touched. The
// returned gradient is caller-owned (attacks keep it across queries).
func (n *Network) LossAndInputGrad(img *tensor.Tensor, label int, loss Loss) (float64, *tensor.Tensor) {
	batch := n.asBatch(img)
	logits := n.Forward(batch, false)
	lv, dlogits := loss.Eval(logits, []int{label})
	dx := n.Backward(dlogits)
	return lv, dx.Reshape(img.Shape()...)
}

// LogitsAndInputGradFrom runs a forward pass for a single image and then
// backpropagates an arbitrary dLoss/dLogits vector, returning the input
// gradient. Attacks with non-cross-entropy objectives (C&W margin loss,
// DeepFool linearization, the FAdeML Eq. 2 cost) use this primitive. Like
// LossAndInputGrad it is an eval-mode query: it writes no Param.Grad, and
// both returned values are caller-owned.
//
// dlogitsFn must treat its argument as read-only and return a distinct
// slice: the logits passed in (and returned to the caller) alias the live
// forward output, and the returned dLoss/dLogits feeds Backward without a
// defensive copy. Every in-repo objective allocates its gradient fresh.
func (n *Network) LogitsAndInputGradFrom(img *tensor.Tensor, dlogitsFn func(logits []float64) []float64) ([]float64, *tensor.Tensor) {
	batch := n.asBatch(img)
	out := n.Forward(batch, false)
	// The returned logits view aliases this pass's forward output, which
	// every layer allocates fresh, so it stays valid for the caller (until
	// garbage collected) without a defensive copy; likewise dl is consumed
	// by Backward before dlogitsFn's owner can observe it again.
	logits := out.Row(0).Data()
	dl := dlogitsFn(logits)
	if len(dl) != len(logits) {
		panic(fmt.Sprintf("nn: dlogits length %d, want %d", len(dl), len(logits)))
	}
	dout := tensor.FromSlice(dl, 1, len(dl))
	dx := n.Backward(dout)
	return logits, dx.Reshape(img.Shape()...)
}

// asBatch promotes a CHW image to a [1, C, H, W] batch, validating shape.
func (n *Network) asBatch(img *tensor.Tensor) *tensor.Tensor {
	want := n.inShape
	got := img.Shape()
	if len(got) != len(want) {
		panic(fmt.Sprintf("nn: network %q expects input shape %v, got %v", n.name, want, got))
	}
	for i := range want {
		if got[i] != want[i] {
			panic(fmt.Sprintf("nn: network %q expects input shape %v, got %v", n.name, want, got))
		}
	}
	return img.Reshape(append([]int{1}, got...)...)
}
