package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Net32 is a frozen float32 inference snapshot of a Network — the compute
// side of the serving fast lane. It is built once from trained float64
// weights via Network.ToFloat32 (one round-to-nearest per weight) and
// supports forward passes only: training, attacks and the paper metrics
// stay on the float64 Network.
//
// The lowering is not layer-by-layer: adjacent Conv2D+ReLU and Dense+ReLU
// pairs are fused into single ops whose bias epilogue clamps in the same
// pass (skipping a full write+read of the activation tensor), Dropout
// disappears (eval-mode identity), and BatchNorm2D folds its running
// statistics and affine into one per-channel scale/shift. Inputs arrive
// as float64 tensors and are rounded once at the batch boundary; logits
// are widened back to float64 (exactly) so softmax and argmax run in
// float64 — any precision drift comes from the forward pass alone.
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

// scratch32 resizes *buf to hold shape and wraps it, mirroring the
// float64 scratch helper.
func scratch32(buf *[]float32, shape ...int) *tensor.Tensor32 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return tensor.FromSlice32(*buf, shape...)
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
		switch l := n.layers[i].(type) {
		case *Conv2D:
			relu := false
			if i+1 < len(n.layers) {
				if _, ok := n.layers[i+1].(*ReLU); ok {
					relu = true
					i++ // fused: consume the activation layer
				}
			}
			net.ops = append(net.ops, newConv32(l, relu))
		case *Dense:
			relu := false
			if i+1 < len(n.layers) {
				if _, ok := n.layers[i+1].(*ReLU); ok {
					relu = true
					i++
				}
			}
			net.ops = append(net.ops, newDense32(l, relu))
		case *MaxPool2D:
			net.ops = append(net.ops, &pool32{k: l.K, stride: l.Stride})
		case *Flatten:
			net.ops = append(net.ops, flatten32{})
		case *Dropout:
			// Eval-mode identity: drop from the pipeline entirely.
		case *BatchNorm2D:
			net.ops = append(net.ops, newBN32(l))
		case *ReLU:
			net.ops = append(net.ops, elt32{kind: eltReLU})
		case *LeakyReLU:
			net.ops = append(net.ops, elt32{kind: eltLeaky, alpha: float32(l.Alpha)})
		case *Tanh:
			net.ops = append(net.ops, elt32{kind: eltTanh})
		case *Sigmoid:
			net.ops = append(net.ops, elt32{kind: eltSigmoid})
		default:
			return nil, fmt.Errorf("nn: ToFloat32: layer %q (%T) has no float32 lowering", l.Name(), l)
		}
	}
	return net, nil
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

// conv32 is a fused Conv2D(+ReLU) in float32: im2col lowering, one
// MatMul32Into per sample, and a bias(+clamp) epilogue that writes the
// output tensor in the same pass.
type conv32 struct {
	inC, outC, k, stride, pad int
	w                         *tensor.Tensor32 // [OutC, InC·K·K], shared across clones
	bias                      []float32        // shared across clones
	relu                      bool

	colsBuf, yBuf, outBuf []float32
}

func newConv32(c *Conv2D, relu bool) *conv32 {
	return &conv32{
		inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
		w:    c.W.Value.Float32(),
		bias: float32Slice(c.B.Value.Data()),
		relu: relu,
	}
}

func (c *conv32) clone() op32 {
	return &conv32{
		inC: c.inC, outC: c.outC, k: c.k, stride: c.stride, pad: c.pad,
		w: c.w, bias: c.bias, relu: c.relu,
	}
}

func (c *conv32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := (h+2*c.pad-c.k)/c.stride + 1
	outW := (w+2*c.pad-c.k)/c.stride + 1
	patch := c.inC * c.k * c.k
	spatial := outH * outW
	chw := c.inC * h * w

	cols := scratch32(&c.colsBuf, patch, spatial)
	y := scratch32(&c.yBuf, c.outC, spatial)
	out := scratch32(&c.outBuf, n, c.outC, outH, outW)
	xd, od, yd := x.Data(), out.Data(), y.Data()
	for s := 0; s < n; s++ {
		im2col(xd[s*chw:(s+1)*chw], c.inC, h, w, cols.Data(), c.k, c.stride, c.pad)
		tensor.MatMul32Into(y, c.w, cols) // [OutC, spatial]
		dst := od[s*c.outC*spatial : (s+1)*c.outC*spatial]
		for f := 0; f < c.outC; f++ {
			b := c.bias[f]
			row := yd[f*spatial : (f+1)*spatial]
			drow := dst[f*spatial : (f+1)*spatial]
			if c.relu {
				for i, v := range row {
					if v = v + b; v > 0 {
						drow[i] = v
					} else {
						drow[i] = 0
					}
				}
			} else {
				for i, v := range row {
					drow[i] = v + b
				}
			}
		}
	}
	return out
}

// dense32 is a fused Dense(+ReLU). The weight matrix is pre-transposed to
// [In, Out] at conversion time so the forward pass is a plain row-major
// GEMM with unit-stride B panels, followed by an in-place bias(+clamp)
// epilogue.
type dense32 struct {
	in, out int
	wt      *tensor.Tensor32 // [In, Out], shared across clones
	bias    []float32
	relu    bool

	outBuf []float32
}

func newDense32(d *Dense, relu bool) *dense32 {
	wt := tensor.New32(d.In, d.Out)
	wd, td := d.W.Value.Data(), wt.Data()
	for o := 0; o < d.Out; o++ {
		for i := 0; i < d.In; i++ {
			td[i*d.Out+o] = float32(wd[o*d.In+i])
		}
	}
	return &dense32{in: d.In, out: d.Out, wt: wt, bias: float32Slice(d.B.Value.Data()), relu: relu}
}

func (d *dense32) clone() op32 {
	return &dense32{in: d.in, out: d.out, wt: d.wt, bias: d.bias, relu: d.relu}
}

func (d *dense32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n := x.Dim(0)
	y := scratch32(&d.outBuf, n, d.out)
	tensor.MatMul32Into(y, x, d.wt)
	yd := y.Data()
	for r := 0; r < n; r++ {
		row := yd[r*d.out : (r+1)*d.out]
		if d.relu {
			for o := range row {
				if v := row[o] + d.bias[o]; v > 0 {
					row[o] = v
				} else {
					row[o] = 0
				}
			}
		} else {
			for o := range row {
				row[o] += d.bias[o]
			}
		}
	}
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
	oh := (h-p.k)/p.stride + 1
	ow := (w-p.k)/p.stride + 1
	out := scratch32(&p.outBuf, n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	neg := float32(math.Inf(-1))
	oi := 0
	for s := 0; s < n; s++ {
		for cc := 0; cc < c; cc++ {
			base := (s*c + cc) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := neg
					for ky := 0; ky < p.k; ky++ {
						rowBase := base + (oy*p.stride+ky)*w + ox*p.stride
						for kx := 0; kx < p.k; kx++ {
							if v := xd[rowBase+kx]; v > best {
								best = v
							}
						}
					}
					od[oi] = best
					oi++
				}
			}
		}
	}
	return out
}

// flatten32 reshapes [N, ...] to [N, rest] as a view.
type flatten32 struct{}

func (flatten32) clone() op32 { return flatten32{} }

func (flatten32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// bn32 is inference-mode BatchNorm2D folded to one per-channel affine:
// scale = gamma/√(var+ε), shift = beta − mean·scale, both computed in
// float64 and rounded once.
type bn32 struct {
	c            int
	scale, shift []float32
	outBuf       []float32
}

func newBN32(b *BatchNorm2D) *bn32 {
	scale := make([]float32, b.C)
	shift := make([]float32, b.C)
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	rm, rv := b.RunMean.Data(), b.RunVar.Data()
	for c := 0; c < b.C; c++ {
		s := gd[c] / math.Sqrt(rv[c]+b.Eps)
		scale[c] = float32(s)
		shift[c] = float32(bd[c] - rm[c]*s)
	}
	return &bn32{c: b.C, scale: scale, shift: shift}
}

func (b *bn32) clone() op32 { return &bn32{c: b.c, scale: b.scale, shift: b.shift} }

func (b *bn32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := h * w
	out := scratch32(&b.outBuf, x.Shape()...)
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
		for c := 0; c < b.c; c++ {
			base := (s*b.c + c) * plane
			sc, sh := b.scale[c], b.shift[c]
			for i := 0; i < plane; i++ {
				od[base+i] = sc*xd[base+i] + sh
			}
		}
	}
	return out
}

// elt32 covers the stand-alone elementwise activations (a ReLU not
// adjacent to a conv/dense stays unfused). It writes in place: the input
// is always the previous op's scratch, which the pipeline never re-reads.
type elt32 struct {
	kind  int
	alpha float32
}

const (
	eltReLU = iota
	eltLeaky
	eltTanh
	eltSigmoid
)

func (e elt32) clone() op32 { return e }

func (e elt32) forward(x *tensor.Tensor32) *tensor.Tensor32 {
	d := x.Data()
	switch e.kind {
	case eltReLU:
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			}
		}
	case eltLeaky:
		for i, v := range d {
			if v < 0 {
				d[i] = e.alpha * v
			}
		}
	case eltTanh:
		for i, v := range d {
			d[i] = float32(math.Tanh(float64(v)))
		}
	case eltSigmoid:
		for i, v := range d {
			d[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	}
	return x
}

func float32Slice(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}
