package nn

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// scalarOf reduces a tensor to a scalar with fixed random weights so that
// gradient checks exercise every output element with distinct sensitivities.
type scalarOf struct {
	weights *tensor.Tensor
}

func newScalarOf(rng *mathx.RNG, shape []int) *scalarOf {
	return &scalarOf{weights: tensor.RandN(rng, shape...)}
}

func (s *scalarOf) value(y *tensor.Tensor) float64 { return tensor.Dot(y, s.weights) }

func (s *scalarOf) grad() *tensor.Tensor { return s.weights.Clone() }

// checkLayerInputGrad verifies Backward's input gradient against central
// finite differences of the scalarized training-mode Forward output.
func checkLayerInputGrad(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	checkLayerInputGradMode(t, layer, x, true, tol)
}

// checkLayerInputGradMode is checkLayerInputGrad in the given Forward mode:
// the gradient Backward returns must be that of the function the last
// Forward actually computed.
func checkLayerInputGradMode(t *testing.T, layer Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	rng := mathx.NewRNG(12345)
	y := layer.Forward(x, train)
	s := newScalarOf(rng, y.Shape())
	analytic := layer.Backward(s.grad())

	const h = 1e-5
	xd := x.Data()
	maxRel := 0.0
	for i := range xd {
		orig := xd[i]
		xd[i] = orig + h
		yp := s.value(layer.Forward(x, train))
		xd[i] = orig - h
		ym := s.value(layer.Forward(x, train))
		xd[i] = orig
		numeric := (yp - ym) / (2 * h)
		a := analytic.Data()[i]
		denom := math.Max(1, math.Max(math.Abs(a), math.Abs(numeric)))
		rel := math.Abs(a-numeric) / denom
		if rel > maxRel {
			maxRel = rel
		}
		if rel > tol {
			t.Fatalf("%s: input grad[%d] analytic=%g numeric=%g rel=%g", layer.Name(), i, a, numeric, rel)
		}
	}
	t.Logf("%s: max input-grad rel err %.2e", layer.Name(), maxRel)
}

// checkLayerParamGrads verifies accumulated parameter gradients against
// central finite differences.
func checkLayerParamGrads(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := mathx.NewRNG(54321)
	y := layer.Forward(x, true)
	s := newScalarOf(rng, y.Shape())
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	layer.Backward(s.grad())

	const h = 1e-5
	for _, p := range layer.Params() {
		vd := p.Value.Data()
		gd := p.Grad.Data()
		for i := range vd {
			orig := vd[i]
			vd[i] = orig + h
			yp := s.value(layer.Forward(x, true))
			vd[i] = orig - h
			ym := s.value(layer.Forward(x, true))
			vd[i] = orig
			numeric := (yp - ym) / (2 * h)
			a := gd[i]
			denom := math.Max(1, math.Max(math.Abs(a), math.Abs(numeric)))
			if rel := math.Abs(a-numeric) / denom; rel > tol {
				t.Fatalf("%s: param %s grad[%d] analytic=%g numeric=%g rel=%g",
					layer.Name(), p.Name, i, a, numeric, rel)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := mathx.NewRNG(1)
	d := NewDense("fc", 7, 5, rng)
	x := tensor.RandN(rng, 3, 7)
	checkLayerInputGrad(t, d, x, 1e-6)
	checkLayerParamGrads(t, d, x, 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	rng := mathx.NewRNG(2)
	c := NewConv2D("conv", 2, 3, 3, 1, 1, rng)
	x := tensor.RandN(rng, 2, 2, 5, 5)
	checkLayerInputGrad(t, c, x, 1e-6)
	checkLayerParamGrads(t, c, x, 1e-6)
}

func TestConv2DGradientsStride2NoPad(t *testing.T) {
	rng := mathx.NewRNG(3)
	c := NewConv2D("conv_s2", 1, 2, 3, 2, 0, rng)
	x := tensor.RandN(rng, 1, 1, 7, 7)
	checkLayerInputGrad(t, c, x, 1e-6)
	checkLayerParamGrads(t, c, x, 1e-6)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := mathx.NewRNG(4)
	p := NewMaxPool2D("pool", 2, 2)
	// Use well-separated values so finite differences never flip the argmax.
	x := tensor.RandN(rng, 2, 2, 4, 4)
	x.ScaleInPlace(10)
	checkLayerInputGrad(t, p, x, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := mathx.NewRNG(5)
	r := NewReLU("relu")
	x := tensor.RandN(rng, 4, 6)
	// Keep values away from the kink at zero.
	x.ApplyInPlace(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.2
		}
		return v
	})
	checkLayerInputGrad(t, r, x, 1e-6)
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := mathx.NewRNG(6)
	l := NewLeakyReLU("lrelu", 0.1)
	x := tensor.RandN(rng, 4, 6)
	x.ApplyInPlace(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.2
		}
		return v
	})
	checkLayerInputGrad(t, l, x, 1e-6)
}

func TestTanhGradients(t *testing.T) {
	rng := mathx.NewRNG(7)
	x := tensor.RandN(rng, 3, 5)
	checkLayerInputGrad(t, NewTanh("tanh"), x, 1e-6)
}

func TestSigmoidGradients(t *testing.T) {
	rng := mathx.NewRNG(8)
	x := tensor.RandN(rng, 3, 5)
	checkLayerInputGrad(t, NewSigmoid("sigmoid"), x, 1e-6)
}

func TestBatchNormGradients(t *testing.T) {
	rng := mathx.NewRNG(9)
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.RandN(rng, 4, 3, 3, 3)
	checkLayerInputGrad(t, bn, x, 1e-5)
	checkLayerParamGrads(t, bn, x, 1e-5)
}

// In eval mode the layer is an affine map of the running statistics, so the
// input gradient is γ·invStd·dy — not the batch-statistics formula — and,
// like every eval-mode backward, it writes no parameter gradient.
func TestBatchNormEvalGradients(t *testing.T) {
	rng := mathx.NewRNG(9)
	bn := NewBatchNorm2D("bn", 3)
	// Running statistics and an affine unlike the batch's own, so the two
	// formulas disagree visibly.
	for c := 0; c < 3; c++ {
		bn.RunMean.Data()[c] = rng.Range(-1, 1)
		bn.RunVar.Data()[c] = rng.Range(0.5, 2)
		bn.Gamma.Value.Data()[c] = rng.Range(0.5, 1.5)
	}
	x := tensor.RandN(rng, 4, 3, 3, 3)
	checkLayerInputGradMode(t, bn, x, false, 1e-6)
	for _, p := range bn.Params() {
		if p.Grad.L1Norm() != 0 {
			t.Fatalf("eval-mode backward wrote %s", p.Name)
		}
	}
}

func TestFlattenGradients(t *testing.T) {
	rng := mathx.NewRNG(10)
	x := tensor.RandN(rng, 2, 3, 4, 4)
	checkLayerInputGrad(t, NewFlatten("flat"), x, 1e-7)
}

// Full-network input gradient check: the exact primitive the adversarial
// attacks rely on.
func TestNetworkLossAndInputGradMatchesFiniteDifference(t *testing.T) {
	rng := mathx.NewRNG(11)
	net, err := TinyCNN(1, 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.RandU(rng, 0, 1, 1, 8, 8)
	loss := CrossEntropy{}
	_, grad := net.LossAndInputGrad(img, 2, loss)

	const h = 1e-5
	d := img.Data()
	for _, i := range []int{0, 7, 31, 63} {
		orig := d[i]
		d[i] = orig + h
		lp, _ := net.LossAndInputGrad(img, 2, loss)
		d[i] = orig - h
		lm, _ := net.LossAndInputGrad(img, 2, loss)
		d[i] = orig
		numeric := (lp - lm) / (2 * h)
		a := grad.Data()[i]
		denom := math.Max(1e-8, math.Max(math.Abs(a), math.Abs(numeric)))
		if rel := math.Abs(a-numeric) / denom; rel > 1e-4 {
			t.Fatalf("network input grad[%d]: analytic=%g numeric=%g rel=%g", i, a, numeric, rel)
		}
	}
}
