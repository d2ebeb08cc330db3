// Package attacks implements the paper's adversarial attack library —
// L-BFGS, FGSM and BIM (the three attacks the paper evaluates) plus PGD,
// DeepFool, C&W, JSMA and a one-pixel attack as library extensions — and
// the FAdeML filter-aware attack wrapper, the paper's core contribution.
//
// Attacks operate against the Classifier interface: the attacker's
// differentiable view of the victim. Wrapping a bare network gives the
// classical (filter-blind) attacker; wrapping it in a FilteredClassifier
// folds the deployment pipeline's pre-processing filters into the model
// the attacker differentiates through, which is exactly the FAdeML idea.
package attacks

import (
	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Classifier is the attacker's differentiable model of the victim system.
type Classifier interface {
	// NumClasses returns the classifier's output width.
	NumClasses() int
	// Logits returns raw class scores for a CHW image. The returned slice
	// must be caller-owned (not a view of internal reusable state): the
	// Probs/ProbsBatch helpers softmax it in place.
	Logits(x *tensor.Tensor) []float64
	// GradFromLogits runs a forward pass, calls dfn on the resulting
	// logits to obtain dLoss/dLogits, and returns the logits together with
	// dLoss/dInput.
	GradFromLogits(x *tensor.Tensor, dfn func(logits []float64) []float64) ([]float64, *tensor.Tensor)
}

// LogitsBatcher is the optional batched-scoring extension of Classifier:
// one forward pass over a whole slice of images. Query-based attacks (the
// one-pixel DE population) and batched evaluation probe for it and fall
// back to per-image Logits calls when absent, so implementing it is purely
// a performance contract — per-row results must be bit-identical to
// single-image queries, and rows must be caller-owned slices (ProbsBatch
// softmaxes them in place), like Logits.
type LogitsBatcher interface {
	LogitsBatch(xs []*tensor.Tensor) [][]float64
}

// NetClassifier adapts an nn.Network to the Classifier interface.
type NetClassifier struct {
	Net *nn.Network
}

// NumClasses implements Classifier.
func (n NetClassifier) NumClasses() int { return n.Net.OutputClasses() }

// Logits implements Classifier.
func (n NetClassifier) Logits(x *tensor.Tensor) []float64 { return n.Net.Logits(x) }

// LogitsBatch implements LogitsBatcher via one batched network forward.
func (n NetClassifier) LogitsBatch(xs []*tensor.Tensor) [][]float64 {
	return n.Net.LogitsBatch(xs)
}

// GradFromLogits implements Classifier.
func (n NetClassifier) GradFromLogits(x *tensor.Tensor, dfn func([]float64) []float64) ([]float64, *tensor.Tensor) {
	return n.Net.LogitsAndInputGradFrom(x, dfn)
}

// FilteredClassifier prepends a pre-processing stage to another classifier
// and differentiates through it via the stage's VJP. This is the FAdeML
// mechanism: an attacker that models the deployed noise filter simply
// attacks the FilteredClassifier instead of the bare network.
type FilteredClassifier struct {
	// Inner is the downstream model (usually a NetClassifier).
	Inner Classifier
	// Pre is the modeled pre-processing (a single filter or a Chain, which
	// may include the acquisition stage under Threat Model II).
	Pre filters.Filter
}

// NumClasses implements Classifier.
func (f FilteredClassifier) NumClasses() int { return f.Inner.NumClasses() }

// Logits implements Classifier.
func (f FilteredClassifier) Logits(x *tensor.Tensor) []float64 {
	return f.Inner.Logits(f.Pre.Apply(x))
}

// LogitsBatch implements LogitsBatcher: the pre-processing stage runs
// per image (filters are single-image operators) and the filtered batch
// is scored through the inner classifier's batched path.
func (f FilteredClassifier) LogitsBatch(xs []*tensor.Tensor) [][]float64 {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = f.Pre.Apply(x)
	}
	return LogitsBatch(f.Inner, ys)
}

// GradFromLogits implements Classifier.
func (f FilteredClassifier) GradFromLogits(x *tensor.Tensor, dfn func([]float64) []float64) ([]float64, *tensor.Tensor) {
	y := f.Pre.Apply(x)
	logits, gy := f.Inner.GradFromLogits(y, dfn)
	return logits, f.Pre.VJP(x, gy)
}

// Probs returns softmax probabilities of c at x. The softmax reuses the
// caller-owned logits slice, so one query costs one allocation.
func Probs(c Classifier, x *tensor.Tensor) []float64 {
	p := c.Logits(x)
	return nn.SoftmaxInto(p, p)
}

// LogitsBatch scores a batch of images through one batched forward when c
// implements LogitsBatcher, falling back to per-image queries otherwise.
// Row i is always bit-identical to c.Logits(xs[i]).
func LogitsBatch(c Classifier, xs []*tensor.Tensor) [][]float64 {
	if bc, ok := c.(LogitsBatcher); ok {
		return bc.LogitsBatch(xs)
	}
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = c.Logits(x)
	}
	return rows
}

// ProbsBatch is LogitsBatch with a per-row in-place softmax.
func ProbsBatch(c Classifier, xs []*tensor.Tensor) [][]float64 {
	rows := LogitsBatch(c, xs)
	for i := range rows {
		rows[i] = nn.SoftmaxInto(rows[i], rows[i])
	}
	return rows
}

// Predict returns the argmax class of c at x and its probability.
func Predict(c Classifier, x *tensor.Tensor) (int, float64) {
	p := Probs(c, x)
	best := mathx.ArgMax(p)
	return best, p[best]
}

// CELossGrad computes the cross-entropy loss of c at x against class, and
// its gradient with respect to x. Minimizing it drives the prediction
// *toward* class (targeted direction); ascending it drives the prediction
// away (untargeted direction).
func CELossGrad(c Classifier, x *tensor.Tensor, class int) (float64, *tensor.Tensor) {
	var loss float64
	_, grad := c.GradFromLogits(x, func(logits []float64) []float64 {
		l, d := nn.CrossEntropy{}.Eval(tensor.FromSlice(logits, 1, len(logits)), []int{class})
		loss = l
		return d.Data()
	})
	return loss, grad
}
