package serve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Detection-as-a-service: the serving layer runs the feature-squeezing
// discrepancy detector (internal/detect) in two roles. Detect
// (/v1/detect) scores one image on demand — verdict plus per-squeezer
// breakdown — and, with Options.Detector set, every external prediction
// takes the detect-then-correct route: the worker scores each slot
// against the detector right after the raw forward, passes clean
// traffic through bit-identically (the raw row it already computed IS
// the response), and re-scores flagged inputs through the heavier
// correction chain before answering.

// Detection is the detector verdict attached to a served Prediction.
type Detection struct {
	// Score is the detector's aggregated discrepancy for this input.
	Score float64 `json:"score"`
	// Threshold is the flag cutoff in force when the verdict was made.
	Threshold float64 `json:"threshold"`
	// Flagged reports Score > Threshold.
	Flagged bool `json:"flagged"`
	// Corrected reports that the prediction was re-scored through the
	// correction chain (set only for flagged inputs on the
	// detect-then-correct route).
	Corrected bool `json:"corrected"`
}

// laneProbs runs one batched forward on the requested precision lane of
// a worker's private clones.
func (s *Server) laneProbs(wp *pipeline.Pipeline, w32 *nn.Net32, prec pipeline.Precision, imgs []*tensor.Tensor) [][]float64 {
	if prec == pipeline.Float32 {
		return w32.ProbsBatch(imgs)
	}
	return wp.Net.ProbsBatch(imgs)
}

// detectBatch is the worker-side detect-then-correct step. For each
// precision lane present it squeezes the detected slots' delivered
// tensors (det.Variants), scores the variants in one grouped forward
// against the raw rows already in rows, and re-routes flagged slots
// through the correction chain — one more grouped forward over just the
// flagged set — replacing their rows. Unflagged slots keep their raw
// rows untouched, which is what makes clean-pass responses
// bit-identical to a non-detecting server.
func (s *Server) detectBatch(det *detect.Detector, wp *pipeline.Pipeline, w32 *nn.Net32, batch []*pending, delivered []*tensor.Tensor, rows [][]float64) {
	for _, prec := range []pipeline.Precision{pipeline.Float64, pipeline.Float32} {
		var idx []int
		var base []*tensor.Tensor
		var raw [][]float64
		for i, p := range batch {
			if p.detect && p.prec == prec {
				idx = append(idx, i)
				base = append(base, delivered[i])
				raw = append(raw, rows[i])
			}
		}
		if len(idx) == 0 {
			continue
		}
		var flagged []int // indices into batch
		for j, sc := range det.ScoreRows(raw, s.laneProbs(wp, w32, prec, det.Variants(base))) {
			i := idx[j]
			batch[i].verdict = &Detection{Score: sc.Score, Threshold: det.Threshold, Flagged: sc.Flagged, Corrected: sc.Flagged}
			s.metrics.recordDetection(sc.Score, sc.Flagged, sc.Flagged)
			if sc.Flagged {
				flagged = append(flagged, i)
			}
		}
		if len(flagged) == 0 {
			continue
		}
		corrBase := make([]*tensor.Tensor, len(flagged))
		for q, i := range flagged {
			corrBase[q] = delivered[i]
		}
		for q, r := range s.laneProbs(wp, w32, prec, s.opts.Correction.ApplyBatch(corrBase)) {
			rows[flagged[q]] = r
		}
	}
}

// DetectRequest describes one on-demand detection job.
type DetectRequest struct {
	// Image is the CHW image to score (must match the model input shape).
	Image *tensor.Tensor
	// Spec is the detector spec, e.g.
	// "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)" or bare
	// "detect" for the default ensemble. Empty selects the server's
	// configured detector (Options.Detector).
	Spec string
	// TM is the threat model whose delivered view is scored. The zero
	// value selects TM-I — the detector guards the DNN input buffer, the
	// view an adversarial payload arrives in.
	TM pipeline.ThreatModel
	// Model selects the probing model ("" = active default; see
	// Request.Model for the reference syntax).
	Model string
}

// DetectResult is the outcome of one Detect call.
type DetectResult struct {
	// Detector is the canonical Name() of the detector that ran.
	Detector string
	// TM is the threat model the image was delivered under before
	// scoring.
	TM pipeline.ThreatModel
	// Verdict is the score, flag and per-squeezer breakdown.
	Verdict detect.Score
	// Threshold echoes the detector's flag cutoff.
	Threshold float64
	// Prediction is the model's answer on the raw delivered view, with
	// the verdict attached (never corrected — Detect reports, the
	// detect-then-correct route rewrites).
	Prediction *Prediction
}

// Detect scores one image against a discrepancy detector: detectViews
// enqueues the raw delivered view plus every squeezed variant together
// on the micro-batching pool — they coalesce into the same micro-batch,
// so one detect call costs one grouped forward pass — and the resulting
// probability vectors feed the detector's scoring kernel. Detect rides
// the interactive admission lane under Options.DefendDeadline, and
// results are content-addressed: a repeat (image, detector spec, tm)
// query is answered from cache without squeezing or admission.
func (s *Server) Detect(ctx context.Context, req DetectRequest) (*DetectResult, error) {
	if req.Image == nil {
		return nil, errors.New("serve: nil image")
	}
	tm := req.TM
	if tm == 0 {
		tm = pipeline.TM1
	}
	m, err := s.resolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	defer m.release()
	if err := s.validate(m, req.Image, tm, pipeline.Float64, true); err != nil {
		return nil, err
	}
	det := s.opts.Detector
	if req.Spec != "" {
		parsed, err := detect.Parse(req.Spec)
		if err != nil {
			return nil, err
		}
		if parsed == nil {
			return nil, fmt.Errorf("serve: detector spec %q disables detection; nothing to score", req.Spec)
		}
		det = parsed
	}
	if det == nil {
		return nil, errors.New("serve: no detector configured (set Options.Detector or pass a spec)")
	}
	var key cacheKey
	if s.cache != nil {
		key = detectCacheKey(m, req.Image, det.Name(), tm)
		if v, ok := s.cache.get(key); ok {
			return v.(cachedDetect).result(), nil
		}
	}
	ctx, leave, err := s.enter(ctx, s.interactive, 1, s.opts.DefendDeadline)
	if err != nil {
		return nil, err
	}
	defer leave()
	// Delivery and squeezing are pure CPU work with no model state; they
	// run on the request goroutine like Defend's filtering.
	verdicts, raw, err := s.detectViews(ctx, m, det, []*tensor.Tensor{m.proto.Deliver(req.Image, tm)})
	if err != nil {
		return nil, err
	}
	verdict := verdicts[0]
	s.metrics.recordDetection(verdict.Score, verdict.Flagged, false)
	pred := copyPrediction(raw[0])
	pred.TM = tm
	pred.Detection = &Detection{Score: verdict.Score, Threshold: det.Threshold, Flagged: verdict.Flagged}
	res := &DetectResult{
		Detector:   det.Name(),
		TM:         tm,
		Verdict:    verdict,
		Threshold:  det.Threshold,
		Prediction: &pred,
	}
	if s.cache != nil {
		s.cache.put(key, newCachedDetect(res))
	}
	return res, nil
}

// detectViews scores already-delivered views: the views and their
// squeezed variants (det.Variants) go through the model's pool as one
// internal predict — they coalesce into shared micro-batches, and the
// caller's slot already accounts for the job — and det.ScoreRows scores
// the probability rows. Returns the verdicts and the raw-view
// predictions, both in views order. It records no verdict counters.
func (s *Server) detectViews(ctx context.Context, m *servedModel, det *detect.Detector, views []*tensor.Tensor) ([]detect.Score, []Prediction, error) {
	all := append(append([]*tensor.Tensor(nil), views...), det.Variants(views)...)
	preds, err := s.predict(ctx, m, Request{Images: all, TM: pipeline.TM1}, false)
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]float64, len(preds))
	for i, p := range preds {
		rows[i] = p.Probs
	}
	n := len(views)
	return det.ScoreRows(rows[:n], rows[n:]), preds[:n], nil
}

// CalibrateDetector re-anchors the configured detector's threshold to a
// target clean false-positive rate over images (see
// detect.Detector.Calibrate), scoring all of them in one detectViews
// call through the active model's micro-batching pool, so the
// calibration view is exactly the serving view. It must run before the
// server takes external traffic — the threshold and the cache-key spec
// are updated in place. Returns the chosen threshold.
func (s *Server) CalibrateDetector(ctx context.Context, images []*tensor.Tensor, fpr float64) (float64, error) {
	det := s.opts.Detector
	if det == nil {
		return 0, errors.New("serve: no detector configured")
	}
	m, err := s.resolveModel("")
	if err != nil {
		return 0, err
	}
	defer m.release()
	verdicts, _, err := s.detectViews(ctx, m, det, images)
	if err != nil {
		return 0, err
	}
	scores := make([]float64, len(verdicts))
	for i, v := range verdicts {
		scores[i] = v.Score
	}
	thr, err := det.Calibrate(scores, fpr)
	if err != nil {
		return 0, err
	}
	s.detSpec = det.Name()
	return thr, nil
}

// DetectorSpec returns the canonical spec of the configured detector,
// or "" when detection is off.
func (s *Server) DetectorSpec() string { return s.detSpec }

// InputShape returns the active model's expected image shape (CHW).
func (s *Server) InputShape() []int {
	return append([]int(nil), s.active.Load().inShape...)
}

// cachedDetect is the stored form of a Detect result.
type cachedDetect struct {
	detector  string
	tm        pipeline.ThreatModel
	verdict   detect.Score
	threshold float64
	pred      Prediction
}

func newCachedDetect(res *DetectResult) cachedDetect {
	c := cachedDetect{
		detector:  res.Detector,
		tm:        res.TM,
		verdict:   res.Verdict,
		threshold: res.Threshold,
		pred:      copyPrediction(*res.Prediction),
	}
	c.verdict.PerSqueezer = append([]detect.SqueezerScore(nil), res.Verdict.PerSqueezer...)
	return c
}

// result converts a cache entry into a caller-owned DetectResult.
func (c cachedDetect) result() *DetectResult {
	pred := copyPrediction(c.pred)
	verdict := c.verdict
	verdict.PerSqueezer = append([]detect.SqueezerScore(nil), c.verdict.PerSqueezer...)
	return &DetectResult{
		Detector:   c.detector,
		TM:         c.tm,
		Verdict:    verdict,
		Threshold:  c.threshold,
		Prediction: &pred,
	}
}
