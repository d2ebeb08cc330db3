package detect

import (
	"fmt"
	"math"
	"sort"
)

// Calibrate sets the detector threshold from clean scores (the Score
// field of clean inputs' verdicts) so that the clean false-positive rate
// matches fpr as closely as the sample allows: with n scores and
// k = floor(fpr·n), the threshold is the (n−k)-th smallest, leaving
// exactly k clean scores strictly above it (scores tie-break
// conservatively — ties with the threshold are not flagged). The chosen
// threshold is stored in d.Threshold and returned; on error d is
// unchanged.
func (d *Detector) Calibrate(scores []float64, fpr float64) (float64, error) {
	if len(scores) == 0 {
		return 0, fmt.Errorf("detect: calibrate needs at least one clean score")
	}
	if math.IsNaN(fpr) || fpr < 0 || fpr >= 1 {
		return 0, fmt.Errorf("detect: calibrate fpr %v out of range [0, 1)", fpr)
	}
	vals := append([]float64(nil), scores...)
	sort.Float64s(vals)
	d.Threshold = vals[len(vals)-1-int(math.Floor(fpr*float64(len(vals))))]
	return d.Threshold, nil
}

// ROCPoint is one operating point of the detector.
type ROCPoint struct {
	// Threshold is the cutoff producing this point (flag iff score >
	// Threshold).
	Threshold float64 `json:"threshold"`
	// FPR is the fraction of clean scores above Threshold.
	FPR float64 `json:"fpr"`
	// TPR is the fraction of adversarial scores above Threshold.
	TPR float64 `json:"tpr"`
}

// ROC sweeps the threshold over every distinct observed score and
// returns the operating curve from (0,0) — threshold above every score
// — to (1,1), with both rates non-decreasing along the curve.
func ROC(clean, adv []float64) []ROCPoint {
	all := make([]float64, 0, len(clean)+len(adv))
	all = append(all, clean...)
	all = append(all, adv...)
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	points := []ROCPoint{{Threshold: math.Inf(1)}}
	for i, thr := range all {
		if i > 0 && thr == all[i-1] {
			continue
		}
		points = append(points, ROCPoint{
			Threshold: thr,
			FPR:       fracAbove(clean, thr),
			TPR:       fracAbove(adv, thr),
		})
	}
	// The flag rule is strict (score > threshold), so even the minimum
	// observed score leaves its own ties unflagged; a −∞ endpoint closes
	// the curve at (1,1).
	points = append(points, ROCPoint{
		Threshold: math.Inf(-1),
		FPR:       fracAbove(clean, math.Inf(-1)),
		TPR:       fracAbove(adv, math.Inf(-1)),
	})
	return points
}

// AUC is the area under the ROC curve, computed as the rank statistic
// P(adv score > clean score) + ½·P(tie) over all pairs. 0.5 is chance,
// 1.0 is a perfect detector. Returns NaN when either set is empty.
func AUC(clean, adv []float64) float64 {
	if len(clean) == 0 || len(adv) == 0 {
		return math.NaN()
	}
	wins := 0.0
	for _, a := range adv {
		for _, c := range clean {
			switch {
			case a > c:
				wins++
			case a == c:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(clean)*len(adv))
}

func fracAbove(xs []float64, thr float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > thr {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
