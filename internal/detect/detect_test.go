package detect

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testNet returns a small deterministic (untrained) CNN: the detect
// package's contracts — batching equivalence, calibration quantiles,
// ROC shape — hold for any fixed network, so skipping training keeps
// the fixture fast.
var (
	netOnce sync.Once
	netInst *nn.Network
	netErr  error
)

func testNet(t testing.TB) *nn.Network {
	t.Helper()
	netOnce.Do(func() { netInst, netErr = nn.TinyCNN(3, 16, 5, mathx.NewRNG(7)) })
	if netErr != nil {
		t.Fatalf("detect fixture: %v", netErr)
	}
	return netInst
}

func canonicalImages(n int) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := gtsrb.Canonical(i%gtsrb.NumClasses, 16)
		if i >= gtsrb.NumClasses {
			img = img.Clone()
			img.ScaleInPlace(0.85)
		}
		imgs[i] = img
	}
	return imgs
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"detect",
		"detect()",
		"detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)",
		"detect(squeezers=(median(r=2)),metric=top1,thr=0.25)",
		"detect(squeezers=(chain(median(r=1),lap(np=8)),bitdepth(bits=5)),thr=1.2)",
		"detect(thr=0.4)",
	}
	for _, spec := range specs {
		d, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := d.Name()
		d2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Name()=%q): %v", canon, err)
		}
		if got := d2.Name(); got != canon {
			t.Errorf("spec %q: round trip %q -> %q", spec, canon, got)
		}
		if len(d2.Squeezers) != len(d.Squeezers) || d2.Metric != d.Metric || d2.Threshold != d.Threshold {
			t.Errorf("spec %q: round trip changed configuration", spec)
		}
	}
	if d := Default(); d.Name() != "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=1)" {
		t.Errorf("Default().Name() = %q", d.Name())
	}
	for _, off := range []string{"", "  ", "none", "NONE"} {
		d, err := Parse(off)
		if err != nil || d != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", off, d, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"detect(squeezers=median(r=1))",    // list not parenthesized
		"detect(squeezers=())",             // empty list
		"detect(squeezers=(nosuch(r=1)))",  // unknown squeezer
		"detect(squeezers=(none))",         // no-op squeezer
		"detect(thr=abc)",                  // non-numeric threshold
		"detect(metric=l7)",                // unknown metric
		"detect(bogus=1)",                  // unknown key
		"detect(thr)",                      // not key=value
		"detect(squeezers=(median(r=1))",   // unbalanced parens
		"squeeze(squeezers=(median(r=1)))", // wrong name
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", spec)
		} else if !strings.Contains(err.Error(), "detect") && !strings.Contains(err.Error(), "filters") {
			t.Errorf("Parse(%q): error %q lacks package context", spec, err)
		}
	}
}

// TestScoreBatchMatchesSerial pins the batching contract: one grouped
// forward over the whole variant batch yields bit-identical scores to
// per-image Score calls.
func TestScoreBatchMatchesSerial(t *testing.T) {
	net := testNet(t)
	imgs := canonicalImages(6)
	for _, d := range []*Detector{
		Default(),
		{Squeezers: Default().Squeezers, Metric: MetricTop1, Threshold: 0.4},
	} {
		batch := d.ScoreBatch(net, imgs)
		for i, img := range imgs {
			single := d.Score(net, img)
			if batch[i].Score != single.Score || batch[i].MaxL1 != single.MaxL1 ||
				batch[i].Top1Disagree != single.Top1Disagree || batch[i].Flagged != single.Flagged {
				t.Fatalf("%s image %d: batch %+v != serial %+v", d.Name(), i, batch[i], single)
			}
			for q := range single.PerSqueezer {
				if batch[i].PerSqueezer[q] != single.PerSqueezer[q] {
					t.Fatalf("%s image %d squeezer %d: %+v != %+v",
						d.Name(), i, q, batch[i].PerSqueezer[q], single.PerSqueezer[q])
				}
			}
		}
	}
}

// TestCalibrateFPR checks the satellite contract: the calibrated
// threshold hits the requested clean false-positive rate to within one
// image on the GTSRB canonical fixtures.
func TestCalibrateFPR(t *testing.T) {
	net := testNet(t)
	imgs := canonicalImages(gtsrb.NumClasses)
	var clean []float64
	for _, s := range Default().ScoreBatch(net, imgs) {
		clean = append(clean, s.Score)
	}
	for _, fpr := range []float64{0, 0.05, 0.1, 0.2} {
		d := Default()
		thr, err := d.Calibrate(clean, fpr)
		if err != nil {
			t.Fatalf("Calibrate(fpr=%v): %v", fpr, err)
		}
		if thr != d.Threshold {
			t.Fatalf("Calibrate returned %v but set Threshold=%v", thr, d.Threshold)
		}
		flagged := 0
		for _, s := range d.ScoreBatch(net, imgs) {
			if s.Flagged {
				flagged++
			}
		}
		want := int(math.Floor(fpr * float64(len(imgs))))
		if diff := flagged - want; diff < -1 || diff > 1 {
			t.Errorf("fpr=%v: flagged %d clean images, want %d ±1 (threshold %v)", fpr, flagged, want, thr)
		}
	}
	d := Default()
	if _, err := d.Calibrate(nil, 0.1); err == nil {
		t.Error("Calibrate with no scores: expected error")
	}
	if _, err := d.Calibrate(clean, 1.0); err == nil {
		t.Error("Calibrate with fpr=1: expected error")
	}
}

// TestROCMonotonePerAttack crafts adversarial examples per attack spec
// and checks the ROC over clean-vs-adversarial scores is a proper
// operating curve: starts at (0,0), ends at (1,1), and both rates are
// non-decreasing as the threshold sweeps down.
func TestROCMonotonePerAttack(t *testing.T) {
	net := testNet(t)
	clf := attacks.NetClassifier{Net: net}
	d := Default()
	clean := canonicalImages(10)
	cleanScores := make([]float64, len(clean))
	for i, s := range d.ScoreBatch(net, clean) {
		cleanScores[i] = s.Score
	}
	for _, spec := range []string{"fgsm(eps=0.2)", "bim(eps=0.15,steps=5)"} {
		atk, err := attacks.Parse(spec)
		if err != nil {
			t.Fatalf("attacks.Parse(%q): %v", spec, err)
		}
		var advScores []float64
		for i, img := range clean {
			src, _ := net.Predict(img)
			res, err := atk.Generate(context.Background(), clf, img, attacks.Goal{Source: src, Target: attacks.Untargeted})
			if err != nil {
				t.Fatalf("%s image %d: %v", spec, i, err)
			}
			advScores = append(advScores, d.Score(net, res.Adversarial).Score)
		}
		roc := ROC(cleanScores, advScores)
		if len(roc) < 2 {
			t.Fatalf("%s: ROC has %d points", spec, len(roc))
		}
		if first := roc[0]; first.FPR != 0 || first.TPR != 0 {
			t.Errorf("%s: ROC starts at (%v,%v), want (0,0)", spec, first.FPR, first.TPR)
		}
		if last := roc[len(roc)-1]; last.FPR != 1 || last.TPR != 1 {
			t.Errorf("%s: ROC ends at (%v,%v), want (1,1)", spec, last.FPR, last.TPR)
		}
		for i := 1; i < len(roc); i++ {
			if roc[i].FPR < roc[i-1].FPR || roc[i].TPR < roc[i-1].TPR {
				t.Errorf("%s: ROC not monotone at point %d: %+v -> %+v", spec, i, roc[i-1], roc[i])
			}
			if roc[i].Threshold >= roc[i-1].Threshold {
				t.Errorf("%s: thresholds not strictly decreasing at point %d", spec, i)
			}
		}
		if auc := AUC(cleanScores, advScores); math.IsNaN(auc) || auc < 0 || auc > 1 {
			t.Errorf("%s: AUC %v out of [0,1]", spec, auc)
		}
	}
}

func TestAUCRankStatistic(t *testing.T) {
	if got := AUC([]float64{0, 0.1}, []float64{0.9, 1}); got != 1 {
		t.Errorf("separable AUC = %v, want 1", got)
	}
	if got := AUC([]float64{1}, []float64{0}); got != 0 {
		t.Errorf("inverted AUC = %v, want 0", got)
	}
	if got := AUC([]float64{0.5}, []float64{0.5}); got != 0.5 {
		t.Errorf("tied AUC = %v, want 0.5", got)
	}
	if got := AUC(nil, []float64{1}); !math.IsNaN(got) {
		t.Errorf("empty clean AUC = %v, want NaN", got)
	}
}
