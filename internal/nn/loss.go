package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Loss couples a scalar objective with its gradient with respect to the
// network logits. Implementations must be deterministic.
type Loss interface {
	// Name identifies the loss in logs and reports.
	Name() string
	// Eval returns the scalar loss and dLoss/dLogits for an [N, C] logits
	// batch and per-sample integer labels.
	Eval(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor)
}

// CrossEntropy is softmax cross-entropy, the paper's training and attack
// objective. Softmax and log are fused for numerical stability, giving the
// familiar gradient (softmax(logits) - onehot) / N.
type CrossEntropy struct{}

// Name implements Loss.
func (CrossEntropy) Name() string { return "cross-entropy" }

// Eval implements Loss.
func (CrossEntropy) Eval(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := checkLossArgs(logits, labels)
	grad := tensor.New(n, c)
	ld, gd := logits.Data(), grad.Data()
	total := 0.0
	invN := 1 / float64(n)
	for r := 0; r < n; r++ {
		row := ld[r*c : (r+1)*c]
		logp := LogSoftmax(row)
		label := labels[r]
		if label < 0 || label >= c {
			panic(fmt.Sprintf("nn: CrossEntropy label %d outside [0,%d)", label, c))
		}
		total += -logp[label]
		grow := gd[r*c : (r+1)*c]
		for j := range grow {
			p := math.Exp(logp[j])
			if j == label {
				grow[j] = (p - 1) * invN
			} else {
				grow[j] = p * invN
			}
		}
	}
	return total * invN, grad
}

func checkLossArgs(logits *tensor.Tensor, labels []int) (n, c int) {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: loss needs [N, C] logits, got %v", logits.Shape()))
	}
	n, c = logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: loss got %d labels for batch of %d", len(labels), n))
	}
	return n, c
}
