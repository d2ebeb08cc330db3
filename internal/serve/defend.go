package serve

import (
	"context"
	"errors"

	"repro/internal/filters"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Defense-as-a-service: the serving layer exposes the filter library next
// to inference and the robustness endpoints. Defend (/v1/defend) runs one
// image through a spec'd filter chain — the deployed filter by default —
// and Evaluate's filters axis sweeps fooling rates over attack spec ×
// filter spec × threat model (see attack.go).

// DefendRequest describes one server-side filtering job.
type DefendRequest struct {
	// Image is the CHW image to filter (must match the model input shape).
	Image *tensor.Tensor
	// Spec is the filter spec, e.g. "median(r=2)" or
	// "chain(median(r=1),histeq(bins=64))". Empty selects the deployed
	// filter; "none" is the explicit no-op.
	Spec string
	// Predict also scores the filtered image through the micro-batching
	// prediction pool (the selected model's view of the defended input).
	Predict bool
	// Model selects the scoring model ("" = active default; see
	// Request.Model for the reference syntax).
	Model string
}

// DefendResult is the outcome of one Defend call.
type DefendResult struct {
	// Filter is the canonical Name() of the filter that ran.
	Filter string
	// Filtered is the filtered image (caller-owned).
	Filtered *tensor.Tensor
	// Prediction is the deployed model's classification of the filtered
	// image; nil unless DefendRequest.Predict was set.
	Prediction *Prediction
}

// Defend filters one image through a spec'd chain. Filtering runs on the
// request goroutine (it is pure CPU work with no model state); the
// optional prediction of the filtered image coalesces with live traffic
// through the micro-batching pool. Defend rides the interactive admission
// lane under Options.DefendDeadline, and results are content-addressed:
// a repeat (image, filter spec, predict) query is answered from cache
// without filtering or admission.
func (s *Server) Defend(ctx context.Context, req DefendRequest) (*DefendResult, error) {
	if req.Image == nil {
		return nil, errors.New("serve: nil image")
	}
	m, err := s.resolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	defer m.release()
	if err := s.validate(m, req.Image, pipeline.TM1, pipeline.Float64, true); err != nil {
		return nil, err
	}
	f := s.filter
	if req.Spec != "" {
		parsed, err := filters.Parse(req.Spec)
		if err != nil {
			return nil, err
		}
		if parsed == nil {
			parsed = filters.Identity{}
		}
		f = parsed
	}
	var key cacheKey
	if s.cache != nil {
		key = defendCacheKey(m, req.Image, f.Name(), req.Predict)
		if v, ok := s.cache.get(key); ok {
			return v.(cachedDefend).result(), nil
		}
	}
	ctx, leave, err := s.enter(ctx, s.interactive, 1, s.opts.DefendDeadline)
	if err != nil {
		return nil, err
	}
	defer leave()
	res := &DefendResult{Filter: f.Name(), Filtered: f.Apply(req.Image)}
	if req.Predict {
		// The slot held above already accounts for this request; the
		// internal predict skips a second admission pass.
		pred, err := first(s.predict(ctx, m, Request{Images: []*tensor.Tensor{res.Filtered}, TM: pipeline.TM1}, false))
		if err != nil {
			return nil, err
		}
		res.Prediction = &pred
	}
	if s.cache != nil {
		entry := cachedDefend{filter: res.Filter, filtered: res.Filtered.Clone()}
		if res.Prediction != nil {
			p := copyPrediction(*res.Prediction)
			entry.pred = &p
		}
		s.cache.put(key, entry)
	}
	return res, nil
}
