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
// tensors (one ApplyBatch per squeezer), scores all squeezed variants
// in one grouped forward against the raw rows already in rows, and
// re-routes flagged slots through the correction chain — one more
// grouped forward over just the flagged set — replacing their rows.
// Unflagged slots keep their raw rows untouched, which is what makes
// clean-pass responses bit-identical to a non-detecting server.
func (s *Server) detectBatch(det *detect.Detector, wp *pipeline.Pipeline, w32 *nn.Net32, batch []*pending, delivered []*tensor.Tensor, rows [][]float64) {
	for _, prec := range []pipeline.Precision{pipeline.Float64, pipeline.Float32} {
		var idx []int
		for i, p := range batch {
			if p.detect && p.prec == prec {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		base := make([]*tensor.Tensor, len(idx))
		for j, i := range idx {
			base[j] = delivered[i]
		}
		k := len(det.Squeezers)
		squeezed := make([]*tensor.Tensor, 0, k*len(idx))
		for _, sq := range det.Squeezers {
			squeezed = append(squeezed, sq.ApplyBatch(base)...)
		}
		var sqRows [][]float64
		if len(squeezed) > 0 {
			sqRows = s.laneProbs(wp, w32, prec, squeezed)
		}
		scores := make([]detect.Score, len(idx))
		var flagged []int // indices into idx
		per := make([][]float64, k)
		for j, i := range idx {
			for q := 0; q < k; q++ {
				per[q] = sqRows[q*len(idx)+j]
			}
			scores[j] = det.ScoreFromProbs(rows[i], per)
			if scores[j].Flagged {
				flagged = append(flagged, j)
			}
		}
		var corrRows [][]float64
		if len(flagged) > 0 && s.opts.Correction != nil {
			corrBase := make([]*tensor.Tensor, len(flagged))
			for q, j := range flagged {
				corrBase[q] = delivered[idx[j]]
			}
			corrRows = s.laneProbs(wp, w32, prec, s.opts.Correction.ApplyBatch(corrBase))
			for q, j := range flagged {
				rows[idx[j]] = corrRows[q]
			}
		}
		for j, i := range idx {
			sc := scores[j]
			corrected := sc.Flagged && corrRows != nil
			batch[i].verdict = &Detection{
				Score:     sc.Score,
				Threshold: det.Threshold,
				Flagged:   sc.Flagged,
				Corrected: corrected,
			}
			s.metrics.recordDetection(sc.Score, sc.Flagged, corrected)
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

// Detect scores one image against a discrepancy detector: the raw
// delivered view plus every squeezed variant are enqueued together on
// the micro-batching pool — they coalesce into the same micro-batch, so
// one detect call costs one grouped forward pass — and the resulting
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
	deliveredView := req.Image
	if tm != pipeline.TM1 {
		deliveredView = pipeline.DeliverThrough(req.Image, s.filter, s.acq, tm)
	}
	verdict, raw, err := s.detectOn(ctx, m, det, deliveredView)
	if err != nil {
		return nil, err
	}
	s.metrics.recordDetection(verdict.Score, verdict.Flagged, false)
	pred := copyPrediction(raw)
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

// detectOn scores one already-delivered view: raw image plus squeezed
// variants through the model's pool as one internal predict (they
// coalesce into the same micro-batch; the caller's slot already accounts
// for the job), then the detector's scoring kernel over the probability
// rows. Returns the verdict and the raw-view prediction.
func (s *Server) detectOn(ctx context.Context, m *servedModel, det *detect.Detector, view *tensor.Tensor) (detect.Score, Prediction, error) {
	variants := make([]*tensor.Tensor, 0, len(det.Squeezers)+1)
	variants = append(variants, view)
	for _, sq := range det.Squeezers {
		variants = append(variants, sq.Apply(view))
	}
	preds, err := s.predict(ctx, m, Request{Images: variants, TM: pipeline.TM1}, false)
	if err != nil {
		return detect.Score{}, Prediction{}, err
	}
	squeezed := make([][]float64, len(preds)-1)
	for i := range squeezed {
		squeezed[i] = preds[i+1].Probs
	}
	return det.ScoreFromProbs(preds[0].Probs, squeezed), preds[0], nil
}

// CalibrateDetector re-anchors the configured detector's threshold to a
// target clean false-positive rate over images, scoring through the
// active model's micro-batching pool (so the calibration view is
// exactly the serving view). It must run before the server takes
// external traffic — the threshold and the cache-key spec are updated
// in place. Returns the chosen threshold.
func (s *Server) CalibrateDetector(ctx context.Context, images []*tensor.Tensor, fpr float64) (float64, error) {
	det := s.opts.Detector
	if det == nil {
		return 0, errors.New("serve: no detector configured")
	}
	if len(images) == 0 {
		return 0, errors.New("serve: calibrate needs at least one clean image")
	}
	if fpr < 0 || fpr >= 1 {
		return 0, fmt.Errorf("serve: calibrate fpr %v out of range [0, 1)", fpr)
	}
	m, err := s.resolveModel("")
	if err != nil {
		return 0, err
	}
	defer m.release()
	scores := make([]float64, len(images))
	for i, img := range images {
		sc, _, err := s.detectOn(ctx, m, det, img)
		if err != nil {
			return 0, err
		}
		scores[i] = sc.Score
	}
	thr := detect.QuantileThreshold(scores, fpr)
	det.Threshold = thr
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
