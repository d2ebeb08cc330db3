// Package detect implements adversarial-input detection by prediction
// discrepancy, the feature-squeezing idea (Xu et al., NDSS 2018) built
// from this repo's own ingredients: the same pre-processing filters the
// FAdeML paper studies as defenses double as "squeezers". A Detector
// compares the network's probability vector on the raw input against
// its output on each squeezed variant and scores the input as the
// worst-case L1 discrepancy — legitimate images survive squeezing with
// nearly unchanged predictions, adversarial perturbations do not.
//
// Detectors are declarative in the attacks/filters style:
// Parse("detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)")
// builds a configured instance and Name() renders the canonical
// round-trippable spec. Calibrate sets the threshold from a sample of
// clean scores to a target clean false-positive rate, and ROC/AUC turn
// clean-vs-adversarial score sets into threshold-free quality numbers.
//
// This package is the only code that knows how squeezed variants are
// laid out and scored. Variants squeezes a batch with one ApplyBatch per
// squeezer, in squeezer-major order; ScoreRows turns the raw rows and
// the variants' rows into verdicts with the one flag rule (score >
// Threshold). ScoreBatch runs both around a single grouped ProbsBatch;
// the serving layer runs the same two calls around its own
// micro-batching pool instead.
package detect

import (
	"math"

	"repro/internal/filters"
	"repro/internal/tensor"
)

// Prober is the slice of a network the detector needs: a batched
// forward pass to probability vectors. Both *nn.Network and *nn.Net32
// satisfy it.
type Prober interface {
	ProbsBatch(imgs []*tensor.Tensor) [][]float64
}

// Metric selects how per-squeezer discrepancies aggregate into the
// detector score.
type Metric int

const (
	// MetricL1 scores max_i ‖Probs(x) − Probs(squeeze_i(x))‖₁ — the
	// feature-squeezing joint detector. Range [0, 2].
	MetricL1 Metric = iota
	// MetricTop1 scores the fraction of squeezers whose top-1 class
	// disagrees with the raw prediction. Range [0, 1]; coarser than L1
	// but robust to confidence scaling.
	MetricTop1
)

// String returns the spec token of the metric ("l1" or "top1").
func (m Metric) String() string {
	if m == MetricTop1 {
		return "top1"
	}
	return "l1"
}

// Detector flags inputs whose predictions are unstable under a set of
// squeezing filters. The zero value is unusable; build one with
// Default, Parse, or by filling the fields directly.
type Detector struct {
	// Squeezers are the filters whose filtered views are compared
	// against the raw prediction. Order is part of the canonical spec.
	Squeezers []filters.Filter
	// Metric aggregates per-squeezer discrepancies (default MetricL1).
	Metric Metric
	// Threshold is the flag cutoff: an input is flagged when its score
	// is strictly greater than Threshold. Calibrate sets it from clean
	// data; DefaultThreshold is a conservative uncalibrated fallback.
	Threshold float64
}

// DefaultThreshold is the uncalibrated flag cutoff: half the maximum L1
// distance between probability vectors. Calibrate replaces it with a
// data-driven value.
const DefaultThreshold = 1.0

// Default returns the stock ensemble — bit-depth squeezing to 4 bits
// plus a radius-1 median filter, the NDSS'18 joint-detector pairing —
// at the uncalibrated DefaultThreshold.
func Default() *Detector {
	return &Detector{
		Squeezers: []filters.Filter{filters.NewBitDepth(4), filters.NewMedian(1)},
		Metric:    MetricL1,
		Threshold: DefaultThreshold,
	}
}

// SqueezerScore is one squeezer's contribution to a verdict.
type SqueezerScore struct {
	// Squeezer is the canonical filter spec.
	Squeezer string `json:"squeezer"`
	// L1 is ‖Probs(x) − Probs(squeeze(x))‖₁ ∈ [0, 2].
	L1 float64 `json:"l1"`
	// Class is the top-1 class of the squeezed view.
	Class int `json:"class"`
	// Agrees reports whether the squeezed top-1 matches the raw top-1.
	Agrees bool `json:"agrees"`
}

// Score is a detector verdict for one input.
type Score struct {
	// Score is the aggregated discrepancy under the detector's Metric.
	Score float64 `json:"score"`
	// MaxL1 is the worst per-squeezer L1 discrepancy regardless of the
	// configured metric.
	MaxL1 float64 `json:"max_l1"`
	// Top1Disagree counts squeezers whose top-1 class differs from the
	// raw prediction.
	Top1Disagree int `json:"top1_disagree"`
	// Flagged reports Score > Threshold at scoring time.
	Flagged bool `json:"flagged"`
	// PerSqueezer is the per-squeezer breakdown, in Squeezers order.
	PerSqueezer []SqueezerScore `json:"per_squeezer,omitempty"`
}

// Variants returns the squeezed views of xs in squeezer-major order —
// out[q*len(xs)+i] is Squeezers[q] applied to xs[i] — with one
// ApplyBatch per squeezer. ScoreRows reads probability rows in this
// layout, so a caller that runs the forward pass itself (the serving
// layer, through its micro-batching pool) only has to keep the order.
func (d *Detector) Variants(xs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, 0, len(d.Squeezers)*len(xs))
	for _, sq := range d.Squeezers {
		out = append(out, sq.ApplyBatch(xs)...)
	}
	return out
}

// ScoreRows is the one scoring kernel: raw[i] is Probs(xs[i]) and
// squeezed holds the probability rows of Variants(xs) in its layout.
// out[i] is the verdict for xs[i], flagged when its score is strictly
// greater than Threshold.
func (d *Detector) ScoreRows(raw, squeezed [][]float64) []Score {
	n, k := len(raw), len(d.Squeezers)
	names := make([]string, k)
	for q, sq := range d.Squeezers {
		names[q] = sq.Name()
	}
	out := make([]Score, n)
	for i, r := range raw {
		rawTop := argMax(r)
		s := Score{PerSqueezer: make([]SqueezerScore, k)}
		for q := range k {
			row := squeezed[q*n+i]
			l1 := l1Dist(r, row)
			top := argMax(row)
			if top != rawTop {
				s.Top1Disagree++
			}
			if l1 > s.MaxL1 {
				s.MaxL1 = l1
			}
			s.PerSqueezer[q] = SqueezerScore{Squeezer: names[q], L1: l1, Class: top, Agrees: top == rawTop}
		}
		switch {
		case d.Metric != MetricTop1:
			s.Score = s.MaxL1
		case k > 0:
			s.Score = float64(s.Top1Disagree) / float64(k)
		}
		s.Flagged = s.Score > d.Threshold
		out[i] = s
	}
	return out
}

// Score runs the detector on one input: one forward batch of
// 1+len(Squeezers) images through p.
func (d *Detector) Score(p Prober, x *tensor.Tensor) Score {
	return d.ScoreBatch(p, []*tensor.Tensor{x})[0]
}

// ScoreBatch scores every input. The whole call costs one ApplyBatch
// per squeezer plus a single grouped forward pass over xs followed by
// Variants(xs), and out[i] is bit-identical to Score(p, xs[i]) because
// probability vectors are a per-image function of the batched forward.
func (d *Detector) ScoreBatch(p Prober, xs []*tensor.Tensor) []Score {
	rows := p.ProbsBatch(append(append([]*tensor.Tensor(nil), xs...), d.Variants(xs)...))
	return d.ScoreRows(rows[:len(xs)], rows[len(xs):])
}

func l1Dist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

func argMax(p []float64) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}
