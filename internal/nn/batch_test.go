package nn

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// TestBatchedInferenceBitIdentical pins the contract the batched call
// sites (train.Evaluate, the one-pixel DE attack, the figure panel
// loops) rely on: every row of LogitsBatch/ProbsBatch and every entry of
// PredictBatch is bit-identical to the corresponding batch-of-1 call.
func TestBatchedInferenceBitIdentical(t *testing.T) {
	rng := mathx.NewRNG(77)
	net, err := TinyCNN(3, 16, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Awkward batch sizes: 1, a non-power-of-two, and one crossing the
	// scratch-reuse boundary (descending size reuses a larger buffer).
	for _, n := range []int{1, 3, 7, 2} {
		imgs := make([]*tensor.Tensor, n)
		for i := range imgs {
			imgs[i] = tensor.RandU(rng, 0, 1, 3, 16, 16)
		}
		logitRows := net.LogitsBatch(imgs)
		probRows := net.ProbsBatch(imgs)
		classes, confs := net.PredictBatch(imgs)
		for i, img := range imgs {
			wantL := net.Logits(img)
			for j := range wantL {
				if logitRows[i][j] != wantL[j] {
					t.Fatalf("batch=%d row %d: LogitsBatch[%d]=%v, Logits=%v", n, i, j, logitRows[i][j], wantL[j])
				}
			}
			wantP := net.Probs(img)
			for j := range wantP {
				if probRows[i][j] != wantP[j] {
					t.Fatalf("batch=%d row %d: ProbsBatch[%d]=%v, Probs=%v", n, i, j, probRows[i][j], wantP[j])
				}
			}
			wantC, wantConf := net.Predict(img)
			if classes[i] != wantC || confs[i] != wantConf {
				t.Fatalf("batch=%d row %d: PredictBatch=(%d,%v), Predict=(%d,%v)", n, i, classes[i], confs[i], wantC, wantConf)
			}
		}
	}
}

// TestBatchShapeValidation ensures a wrong-shaped image anywhere in the
// batch is rejected, and empty batches are legal no-ops.
func TestBatchShapeValidation(t *testing.T) {
	rng := mathx.NewRNG(78)
	net, err := TinyCNN(1, 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.ProbsBatch(nil); got != nil {
		t.Fatalf("ProbsBatch(nil) = %v, want nil", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ProbsBatch with mismatched image shape did not panic")
		}
	}()
	net.ProbsBatch([]*tensor.Tensor{
		tensor.RandU(rng, 0, 1, 1, 8, 8),
		tensor.RandU(rng, 0, 1, 1, 4, 4),
	})
}

// TestSoftmaxIntoAliasing checks the documented in-place form.
func TestSoftmaxIntoAliasing(t *testing.T) {
	logits := []float64{0.3, -1.2, 2.4, 0}
	want := Softmax(logits)
	got := SoftmaxInto(logits, logits)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-place SoftmaxInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
