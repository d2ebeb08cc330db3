package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Net32 is a frozen float32 inference snapshot of a Network — the compute
// side of the serving fast lane. It is built once from trained float64
// weights via Network.ToFloat32 (one round-to-nearest per weight) and
// supports forward passes only: training, attacks and the paper metrics
// stay on the float64 Network.
//
// Each op runs the same generic forward as its float64 layer
// (convForward, denseForward, maxPool). The lowering is not
// layer-by-layer: adjacent Conv2D+ReLU and Dense+ReLU pairs are fused into
// single ops whose bias epilogue clamps in the same pass (skipping a full
// write+read of the activation tensor). Inputs arrive as float64 tensors
// and are rounded once at the batch boundary; logits are widened back to
// float64 (exactly) so softmax and argmax run in float64 — any precision
// drift comes from the forward pass alone.
type Net32 struct {
	name    string
	inShape []int
	classes int
	ops     []op32
	inBuf   []float32
}

// op32 is one fused stage of the float32 forward pipeline. forward may
// return a tensor backed by the op's own scratch (valid until its next
// forward call) or a view of its input.
type op32 interface {
	forward(x *tensor.Tensor32) *tensor.Tensor32
	clone() op32
}

// scratch32 is the float32 scratch helper.
func scratch32(buf *[]float32, shape ...int) *tensor.Tensor32 {
	return tensor.FromSlice32(grow(buf, numel(shape)), shape...)
}

// ToFloat32 lowers the network to a float32 inference snapshot. Weights
// are converted once (round-to-nearest-even); the snapshot shares nothing
// mutable with the Network, so the float64 net can keep training while
// clones of the snapshot serve. Layers without a float32 lowering yield
// an error rather than a silent fallback.
func (n *Network) ToFloat32() (*Net32, error) {
	net := &Net32{
		name:    n.name,
		inShape: append([]int(nil), n.inShape...),
		classes: n.OutputClasses(),
	}
	for i := 0; i < len(n.layers); i++ {
		fused := false // a ReLU right after a conv or dense layer clamps in its epilogue
		switch l := n.layers[i].(type) {
		case *Conv2D:
			fused = n.reluAfter(i)
			net.ops = append(net.ops, &conv32{g: l.geom(), w: l.W.Value.Float32().Data(), bias: l.B.Value.Float32().Data(), relu: fused})
		case *Dense:
			fused = n.reluAfter(i)
			net.ops = append(net.ops, &dense32{in: l.In, out: l.Out, w: l.W.Value.Float32().Data(), bias: l.B.Value.Float32().Data(), relu: fused})
		case *MaxPool2D:
			net.ops = append(net.ops, &pool32{k: l.K, stride: l.Stride})
		case *Flatten:
			net.ops = append(net.ops, flatten32{})
		case *ReLU:
			net.ops = append(net.ops, relu32{})
		default:
			return nil, fmt.Errorf("nn: ToFloat32: layer %q (%T) has no float32 lowering", l.Name(), l)
		}
		if fused {
			i++ // consume the activation layer
		}
	}
	return net, nil
}

// reluAfter reports whether layer i+1 is a ReLU.
func (n *Network) reluAfter(i int) bool {
	if i+1 >= len(n.layers) {
		return false
	}
	_, ok := n.layers[i+1].(*ReLU)
	return ok
}

// Name returns the source network's name.
func (n *Net32) Name() string { return n.name }

// InputShape returns the per-sample input shape.
func (n *Net32) InputShape() []int { return append([]int(nil), n.inShape...) }

// OutputClasses returns the classifier width.
func (n *Net32) OutputClasses() int { return n.classes }

// Clone returns a snapshot sharing the (immutable) float32 weights but
// owning all scratch, so original and clones may serve concurrently —
// the same contract as Network.Clone, minus gradient state.
func (n *Net32) Clone() *Net32 {
	ops := make([]op32, len(n.ops))
	for i, o := range n.ops {
		ops[i] = o.clone()
	}
	return &Net32{
		name:    n.name,
		inShape: append([]int(nil), n.inShape...),
		classes: n.classes,
		ops:     ops,
	}
}

// stack32 rounds a slice of float64 CHW images into one float32
// [N, C, H, W] batch backed by the snapshot's input buffer, validating
// every image's shape.
func (n *Net32) stack32(imgs []*tensor.Tensor) *tensor.Tensor32 {
	per := 1
	for _, d := range n.inShape {
		per *= d
	}
	batch := scratch32(&n.inBuf, append([]int{len(imgs)}, n.inShape...)...)
	bd := batch.Data()
	for s, img := range imgs {
		got := img.Shape()
		ok := len(got) == len(n.inShape)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i] == n.inShape[i]
		}
		if !ok {
			panic(fmt.Sprintf("nn: net32 %q expects input shape %v, got %v (batch slot %d)", n.name, n.inShape, got, s))
		}
		id := img.Data()
		dst := bd[s*per : (s+1)*per]
		for i, v := range id {
			dst[i] = float32(v)
		}
	}
	return batch
}

func (n *Net32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	for _, o := range n.ops {
		x = o.forward(x)
	}
	return x
}

// Logits runs float32 inference for a single float64 CHW image and
// returns the class scores widened (exactly) to float64.
func (n *Net32) Logits(img *tensor.Tensor) []float64 {
	out := n.forward(n.stack32([]*tensor.Tensor{img}))
	row := out.Data()[:n.classes]
	logits := make([]float64, len(row))
	for i, v := range row {
		logits[i] = float64(v)
	}
	return logits
}

// Probs runs float32 inference for a single image and returns float64
// softmax probabilities. The softmax runs in float64 over exactly-widened
// logits, so the only float32 effect is forward-pass drift.
func (n *Net32) Probs(img *tensor.Tensor) []float64 {
	logits := n.Logits(img)
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// ProbsBatch runs one batched float32 forward pass and returns per-image
// float64 probability rows (full slice expressions: rows go to
// independent owners, same contract as Network.ProbsBatch).
func (n *Net32) ProbsBatch(imgs []*tensor.Tensor) [][]float64 {
	if len(imgs) == 0 {
		return nil
	}
	out := n.forward(n.stack32(imgs))
	c := out.Dim(1)
	od := out.Data()
	flat := make([]float64, len(imgs)*c)
	rows := make([][]float64, len(imgs))
	lrow := make([]float64, c)
	for i := range rows {
		for j, v := range od[i*c : (i+1)*c] {
			lrow[j] = float64(v)
		}
		rows[i] = SoftmaxInto(flat[i*c:(i+1)*c:(i+1)*c], lrow)
	}
	return rows
}

// Predict returns the argmax class and its probability for a single image.
func (n *Net32) Predict(img *tensor.Tensor) (class int, prob float64) {
	probs := n.Probs(img)
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs[best]
}

// conv32 is a fused Conv2D(+ReLU): convForward with one im2col buffer
// reused across the batch.
type conv32 struct {
	g       convGeom
	w, bias []float32 // [OutC, InC·K·K] and [OutC], shared across clones
	relu    bool

	colsBuf, outBuf []float32
}

func (c *conv32) clone() op32 { return &conv32{g: c.g, w: c.w, bias: c.bias, relu: c.relu} }

func (c *conv32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.g.outSize(h, w)
	cols := grow(&c.colsBuf, c.g.inC*c.g.k*c.g.k*oh*ow)
	out := scratch32(&c.outBuf, n, c.g.outC, oh, ow)
	convForward(c.g, out.Data(), x.Data(), cols, c.w, c.bias, n, h, w, c.relu)
	return out
}

// dense32 is a fused Dense(+ReLU): denseForward into the op's scratch.
type dense32 struct {
	in, out int
	w, bias []float32 // [Out, In] and [Out], shared across clones
	relu    bool

	outBuf []float32
}

func (d *dense32) clone() op32 {
	return &dense32{in: d.in, out: d.out, w: d.w, bias: d.bias, relu: d.relu}
}

func (d *dense32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n := x.Dim(0)
	y := scratch32(&d.outBuf, n, d.out)
	denseForward(y.Data(), x.Data(), d.w, d.bias, n, d.in, d.out, d.relu)
	return y
}

// pool32 is MaxPool2D without the argmax table (no backward pass).
type pool32 struct {
	k, stride int
	outBuf    []float32
}

func (p *pool32) clone() op32 { return &pool32{k: p.k, stride: p.stride} }

func (p *pool32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := scratch32(&p.outBuf, n, c, (h-p.k)/p.stride+1, (w-p.k)/p.stride+1)
	maxPool(out.Data(), x.Data(), nil, n, c, h, w, p.k, p.stride)
	return out
}

// flatten32 reshapes [N, ...] to [N, rest] as a view.
type flatten32 struct{}

func (flatten32) clone() op32 { return flatten32{} }

func (flatten32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// relu32 is a ReLU with no conv or dense layer before it to fuse into. It
// clamps in place: the input is always the previous op's scratch (or the
// snapshot's input buffer), which the pipeline never re-reads.
type relu32 struct{}

func (relu32) clone() op32 { return relu32{} }

func (relu32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	d := x.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return x
}
