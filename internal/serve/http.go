package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/httpbody"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// maxBodyBytes bounds request bodies; a 3×96×96 float64 batch of 64 images
// serialized as JSON stays far below this.
const maxBodyBytes = 64 << 20

// imagePayload is the wire form of one CHW image.
type imagePayload struct {
	// Pixels is the row-major flattened image in [0, 1].
	Pixels []float64 `json:"pixels"`
	// Shape is the CHW shape, e.g. [3, 32, 32].
	Shape []int `json:"shape"`
}

// tensor validates the payload and converts it to a tensor.
func (p imagePayload) tensor() (*tensor.Tensor, error) {
	if len(p.Shape) == 0 {
		return nil, errors.New("image needs a shape, e.g. [3, 32, 32]")
	}
	n := 1
	for _, d := range p.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("image shape %v has a non-positive dimension", p.Shape)
		}
		// n*d > len(Pixels): the product only grows from here, so the
		// payload is already wrong — stop before it can wrap back around
		// to the pixel count.
		if d > len(p.Pixels)/n {
			return nil, fmt.Errorf("image shape %v wants more than the %d pixels given", p.Shape, len(p.Pixels))
		}
		n *= d
	}
	if n != len(p.Pixels) {
		return nil, fmt.Errorf("image shape %v wants %d pixels, got %d", p.Shape, n, len(p.Pixels))
	}
	return tensor.FromSlice(p.Pixels, p.Shape...), nil
}

// predictRequest is the /v1/predict body: one image, an optional threat
// model ("1".."3", "tm2", "TM-II", … — empty selects the server default)
// and whether to echo the full probability vector.
type predictRequest struct {
	imagePayload
	TM string `json:"tm,omitempty"`
	// Precision selects the numeric lane ("float32"/"f32"/"32" or
	// "float64"/"f64"/"64"); empty selects the server default.
	Precision string `json:"precision,omitempty"`
	// Model pins a loaded model version ("name@version", or a bare name
	// for its highest loaded version); empty selects the active default.
	Model       string `json:"model,omitempty"`
	ReturnProbs bool   `json:"probs,omitempty"`
}

// predictBatchRequest is the /v1/predict_batch body.
type predictBatchRequest struct {
	Images      []imagePayload `json:"images"`
	TM          string         `json:"tm,omitempty"`
	Precision   string         `json:"precision,omitempty"`
	Model       string         `json:"model,omitempty"`
	ReturnProbs bool           `json:"probs,omitempty"`
}

// predictResponse is the wire form of one Prediction.
type predictResponse struct {
	Class     int       `json:"class"`
	Label     string    `json:"label,omitempty"`
	Prob      float64   `json:"prob"`
	TM        string    `json:"tm"`
	Precision string    `json:"precision"`
	Model     string    `json:"model,omitempty"`
	Probs     []float64 `json:"probs,omitempty"`
	// Detection carries the detect-then-correct verdict when the server
	// runs with a detector configured.
	Detection *Detection `json:"detection,omitempty"`
}

func toResponse(p Prediction, withProbs bool) predictResponse {
	r := predictResponse{Class: p.Class, Label: p.Label, Prob: p.Prob, TM: p.TM.String(), Precision: p.Precision.String(), Model: p.Model, Detection: p.Detection}
	if withProbs {
		r.Probs = p.Probs
	}
	return r
}

// Handler returns the server's HTTP surface:
//
//	POST /v1/predict        {"pixels": […], "shape": [3,S,S], "tm": "2", "probs": true}
//	POST /v1/predict_batch  {"images": [{"pixels": …, "shape": …}, …], "tm": "3"}
//	POST /v1/defend         {"pixels": […], "shape": [3,S,S], "filter": "chain(median(r=1),histeq(bins=64))", "predict": true}
//	POST /v1/detect         {"pixels": […], "shape": [3,S,S], "detector": "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)"}
//	POST /v1/attack         {"attack": "pgd(eps=0.03,steps=40)", "source": 14, "target": 1, "tm": "3", "aware": true}
//	POST /v1/evaluate       {"attacks": ["fgsm", "bim(eps=0.1)"], "tms": ["3"], "filters": ["none", "lap(np=32)"], "detector": "detect", "cases": [{"source":14,"target":1}]}
//	GET  /v1/models         model table: active version, loaded versions, registry catalog
//	POST /v1/models         {"action": "load"|"activate"|"unload", "model": "name@version", "keep": true}
//	GET  /v1/healthz        liveness + degraded/draining + model identity + configuration echo
//	GET  /v1/stats          serving counters (Stats)
//	GET  /metrics           Prometheus text exposition (lanes, cache, models, latency)
//
// Inference routes accept an optional "model" field pinning a loaded
// version ("name@version", or a bare name for its highest loaded
// version); the reply echoes the version that answered.
//
// Every /v1 route is instrumented: per-route latency histograms and
// status-class counters feed /metrics. Error responses are structured
// JSON with a machine-readable "code": admission sheds are 429 with a
// Retry-After header, drain/shutdown refusals 503, server-side deadline
// hits 504, a body over maxBodyBytes 413. POST bodies are decoded by the
// wire decoder (wire.go); bytes after the body's one JSON value are a 400.
// Every POST route is a pure body behind the one post adapter.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.instrument("predict", post(s.routePredict)))
	mux.HandleFunc("/v1/predict_batch", s.instrument("predict_batch", post(s.routeBatch)))
	mux.HandleFunc("/v1/defend", s.instrument("defend", post(s.routeDefend)))
	mux.HandleFunc("/v1/detect", s.instrument("detect", post(s.routeDetect)))
	mux.HandleFunc("/v1/attack", s.instrument("attack", post(s.routeAttack)))
	mux.HandleFunc("/v1/evaluate", s.instrument("evaluate", post(s.routeEvaluate)))
	mux.HandleFunc("/v1/models", s.instrument("models", s.handleModels))
	mux.HandleFunc("/v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// defendHTTPRequest is the /v1/defend body: one image and a filter spec
// (empty selects the deployed filter; "none" is the explicit no-op).
type defendHTTPRequest struct {
	imagePayload
	Filter string `json:"filter,omitempty"`
	// Predict also classifies the filtered image.
	Predict bool `json:"predict,omitempty"`
	// Model selects the scoring model ("" = active default).
	Model string `json:"model,omitempty"`
	// ReturnPixels echoes the filtered image in the response (default
	// true; set "return_pixels": false to save bandwidth when only
	// predicting).
	ReturnPixels *bool `json:"return_pixels,omitempty"`
}

// defendHTTPResponse is the /v1/defend reply.
type defendHTTPResponse struct {
	Filter string    `json:"filter"`
	Pixels []float64 `json:"pixels,omitempty"`
	Shape  []int     `json:"shape,omitempty"`
	Class  *int      `json:"class,omitempty"`
	Label  string    `json:"label,omitempty"`
	Prob   *float64  `json:"prob,omitempty"`
}

func (s *Server) routeDefend(ctx context.Context, req *defendHTTPRequest) (any, error) {
	img, err := req.tensor()
	if err != nil {
		return nil, err
	}
	out, err := s.Defend(ctx, DefendRequest{Image: img, Spec: req.Filter, Predict: req.Predict, Model: req.Model})
	if err != nil {
		return nil, err
	}
	resp := defendHTTPResponse{Filter: out.Filter}
	if req.ReturnPixels == nil || *req.ReturnPixels {
		resp.Pixels = out.Filtered.Data()
		resp.Shape = out.Filtered.Shape()
	}
	if out.Prediction != nil {
		resp.Class = &out.Prediction.Class
		resp.Label = out.Prediction.Label
		resp.Prob = &out.Prediction.Prob
	}
	return resp, nil
}

// detectHTTPRequest is the /v1/detect body: one image, an optional
// detector spec (empty selects the server's configured detector) and an
// optional threat model (empty selects TM-I, the DNN input-buffer view
// the detector guards).
type detectHTTPRequest struct {
	imagePayload
	Detector string `json:"detector,omitempty"`
	TM       string `json:"tm,omitempty"`
	// Model selects the probing model ("" = active default).
	Model string `json:"model,omitempty"`
}

// detectHTTPResponse is the /v1/detect reply: the verdict, the
// per-squeezer breakdown, and the model's classification of the raw
// view.
type detectHTTPResponse struct {
	Detector     string                 `json:"detector"`
	TM           string                 `json:"tm"`
	Score        float64                `json:"score"`
	Threshold    float64                `json:"threshold"`
	Flagged      bool                   `json:"flagged"`
	MaxL1        float64                `json:"max_l1"`
	Top1Disagree int                    `json:"top1_disagree"`
	Squeezers    []detect.SqueezerScore `json:"squeezers"`
	Class        int                    `json:"class"`
	Label        string                 `json:"label,omitempty"`
	Prob         float64                `json:"prob"`
	Model        string                 `json:"model,omitempty"`
}

func (s *Server) routeDetect(ctx context.Context, req *detectHTTPRequest) (any, error) {
	tm, err := parseTM(req.TM, pipeline.TM1)
	if err != nil {
		return nil, err
	}
	img, err := req.tensor()
	if err != nil {
		return nil, err
	}
	out, err := s.Detect(ctx, DetectRequest{Image: img, Spec: req.Detector, TM: tm, Model: req.Model})
	if err != nil {
		return nil, err
	}
	return detectHTTPResponse{
		Detector:     out.Detector,
		TM:           out.TM.String(),
		Score:        out.Verdict.Score,
		Threshold:    out.Threshold,
		Flagged:      out.Verdict.Flagged,
		MaxL1:        out.Verdict.MaxL1,
		Top1Disagree: out.Verdict.Top1Disagree,
		Squeezers:    out.Verdict.PerSqueezer,
		Class:        out.Prediction.Class,
		Label:        out.Prediction.Label,
		Prob:         out.Prediction.Prob,
		Model:        out.Prediction.Model,
	}, nil
}

// attackHTTPRequest is the /v1/attack body. Pixels/Shape are optional:
// when absent the canonical source-class sign is rendered server-side.
type attackHTTPRequest struct {
	imagePayload
	Attack string `json:"attack"`
	Source int    `json:"source"`
	// Target defaults to untargeted when the field is omitted.
	Target *int   `json:"target"`
	TM     string `json:"tm,omitempty"`
	// Aware is shorthand for "adaptive": "bpda" (FAdeML crafting).
	Aware bool `json:"aware,omitempty"`
	// Adaptive is the crafting mode spec ("blind", "bpda",
	// "eot(draws=N)"); it overrides Aware.
	Adaptive string `json:"adaptive,omitempty"`
	// Model selects the attacked model ("" = active default).
	Model string `json:"model,omitempty"`
	// ReturnAdv echoes the crafted adversarial image in the response.
	ReturnAdv bool `json:"adv,omitempty"`
}

// attackHTTPResponse flattens a core.Outcome onto the wire.
type attackHTTPResponse struct {
	Attack       string    `json:"attack"`
	Success      bool      `json:"success"`
	Truncated    bool      `json:"truncated"`
	Queries      int       `json:"queries"`
	Iterations   int       `json:"iterations"`
	AttackerPred int       `json:"attacker_pred"`
	AttackerConf float64   `json:"attacker_conf"`
	CleanPred    int       `json:"clean_pred"`
	TM1Pred      int       `json:"tm1_pred"`
	TM1Conf      float64   `json:"tm1_conf"`
	DeployedTM   string    `json:"deployed_tm"`
	DeployedPred int       `json:"deployed_pred"`
	DeployedConf float64   `json:"deployed_conf"`
	Cost         float64   `json:"cost"`
	Neutralized  bool      `json:"neutralized"`
	Survived     bool      `json:"survived"`
	NoiseLInf    float64   `json:"noise_linf"`
	NoiseL2      float64   `json:"noise_l2"`
	AdvPixels    []float64 `json:"adv_pixels,omitempty"`
	AdvShape     []int     `json:"adv_shape,omitempty"`
}

func (s *Server) routeAttack(ctx context.Context, req *attackHTTPRequest) (any, error) {
	tm, err := parseTM(req.TM, 0)
	if err != nil {
		return nil, err
	}
	var img *tensor.Tensor
	if len(req.Pixels) > 0 || len(req.Shape) > 0 {
		if img, err = req.tensor(); err != nil {
			return nil, err
		}
	}
	adaptive := req.Adaptive
	if adaptive == "" && req.Aware {
		adaptive = attacks.AdaptiveBPDA
	}
	out, err := s.Attack(ctx, AttackRequest{
		Spec:     req.Attack,
		Image:    img,
		Source:   req.Source,
		Target:   attackTargetOrUntargeted(req.Target),
		TM:       tm,
		Adaptive: adaptive,
		Model:    req.Model,
	})
	if err != nil {
		return nil, err
	}
	res := out.AttackerResult
	cmp := out.Comparison
	resp := attackHTTPResponse{
		Attack:       cmp.AttackName,
		Success:      res.Success,
		Truncated:    res.Truncated,
		Queries:      res.Queries,
		Iterations:   res.Iterations,
		AttackerPred: res.PredClass,
		AttackerConf: res.Confidence,
		CleanPred:    cmp.CleanPred,
		TM1Pred:      cmp.TM1Pred,
		TM1Conf:      cmp.TM1Conf,
		DeployedTM:   cmp.TMX.String(),
		DeployedPred: cmp.TMXPred,
		DeployedConf: cmp.TMXConf,
		Cost:         cmp.Cost,
		Neutralized:  cmp.Neutralized,
		Survived:     cmp.SurvivedFilter,
		NoiseLInf:    res.Noise.LInfNorm(),
		NoiseL2:      res.Noise.L2Norm(),
	}
	if req.ReturnAdv {
		resp.AdvPixels = res.Adversarial.Data()
		resp.AdvShape = res.Adversarial.Shape()
	}
	return resp, nil
}

// evalHTTPCase is one wire-form evaluation scenario.
type evalHTTPCase struct {
	Source int  `json:"source"`
	Target *int `json:"target"`
	// Pixels/Shape optionally carry an explicit clean image.
	Pixels []float64 `json:"pixels,omitempty"`
	Shape  []int     `json:"shape,omitempty"`
}

// evalHTTPRequest is the /v1/evaluate body.
type evalHTTPRequest struct {
	Attacks []string `json:"attacks"`
	TMs     []string `json:"tms,omitempty"`
	// Filters are filter specs overriding the deployed pre-processing
	// per series; empty sweeps the deployed filter only.
	Filters []string       `json:"filters,omitempty"`
	Cases   []evalHTTPCase `json:"cases,omitempty"`
	// Aware is shorthand for "adaptive": ["bpda"] (FAdeML crafting).
	Aware bool `json:"aware,omitempty"`
	// Adaptive sweeps explicit crafting modes ("blind", "bpda",
	// "eot(draws=N)") and overrides Aware; a sweep containing "blind"
	// plus stronger modes also returns "gaps".
	Adaptive []string `json:"adaptive,omitempty"`
	// Model pins the evaluated model for the whole sweep.
	Model string `json:"model,omitempty"`
	// Detector adds the detection axis: a detector spec (bare "detect"
	// selects the default ensemble), "none" to disable for this sweep,
	// empty to inherit the server's configured detector.
	Detector string `json:"detector,omitempty"`
}

func (s *Server) routeEvaluate(ctx context.Context, req *evalHTTPRequest) (any, error) {
	var tms []pipeline.ThreatModel
	for _, spec := range req.TMs {
		// An empty entry is 0: Evaluate resolves it as the attack threat
		// model, the same as an omitted "tms" or /v1/attack's empty "tm".
		tm, err := parseTM(spec, 0)
		if err != nil {
			return nil, err
		}
		tms = append(tms, tm)
	}
	var cases []EvalCase
	for i, c := range req.Cases {
		ec := EvalCase{Source: c.Source, Target: attackTargetOrUntargeted(c.Target)}
		if len(c.Pixels) > 0 || len(c.Shape) > 0 {
			img, err := imagePayload{Pixels: c.Pixels, Shape: c.Shape}.tensor()
			if err != nil {
				return nil, fmt.Errorf("case %d: %w", i, err)
			}
			ec.Image = img
		}
		cases = append(cases, ec)
	}
	adaptive := req.Adaptive
	if len(adaptive) == 0 && req.Aware {
		adaptive = []string{attacks.AdaptiveBPDA}
	}
	out, err := s.Evaluate(ctx, EvaluateRequest{
		Specs:    req.Attacks,
		TMs:      tms,
		Filters:  req.Filters,
		Cases:    cases,
		Adaptive: adaptive,
		Model:    req.Model,
		Detector: req.Detector,
	})
	if err != nil {
		return nil, err
	}
	resp := map[string]any{"cells": out.Cells, "summaries": out.Summaries}
	if len(out.Gaps) > 0 {
		resp["gaps"] = out.Gaps
	}
	return resp, nil
}

// attackTargetOrUntargeted maps an omitted wire target to Untargeted.
func attackTargetOrUntargeted(t *int) int {
	if t == nil {
		return attacks.Untargeted
	}
	return *t
}

func (s *Server) routePredict(ctx context.Context, req *predictRequest) (any, error) {
	results, err := s.predictWire(ctx, []imagePayload{req.imagePayload}, false, req.TM, req.Precision, req.Model, req.ReturnProbs)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

func (s *Server) routeBatch(ctx context.Context, req *predictBatchRequest) (any, error) {
	if len(req.Images) == 0 {
		return nil, errors.New("batch needs at least one image")
	}
	results, err := s.predictWire(ctx, req.Images, true, req.TM, req.Precision, req.Model, req.ReturnProbs)
	if err != nil {
		return nil, err
	}
	return map[string]any{"results": results}, nil
}

// predictWire is the shared body of /v1/predict and /v1/predict_batch:
// resolve the wire selectors (empty selects the server default), build
// the tensors — indexed names an image error by its position in a batch —
// call Do, and shape each prediction for the wire.
func (s *Server) predictWire(ctx context.Context, images []imagePayload, indexed bool, tmSpec, precSpec, model string, withProbs bool) ([]predictResponse, error) {
	tm, err := parseTM(tmSpec, s.opts.DefaultTM)
	if err != nil {
		return nil, err
	}
	prec, err := parsePrecision(precSpec, s.opts.Precision)
	if err != nil {
		return nil, err
	}
	imgs := make([]*tensor.Tensor, len(images))
	for i, p := range images {
		if imgs[i], err = p.tensor(); err != nil {
			if indexed {
				err = fmt.Errorf("image %d: %w", i, err)
			}
			return nil, err
		}
	}
	preds, err := s.Do(ctx, Request{Images: imgs, Model: model, TM: tm, Precision: prec})
	if err != nil {
		return nil, err
	}
	results := make([]predictResponse, len(preds))
	for i, p := range preds {
		results[i] = toResponse(p, withProbs)
	}
	return results, nil
}

// handleHealthz reports liveness for load balancers and front doors:
// 503 "draining"/"closed" once the server refuses new work, 200
// "degraded" while an admission lane shed within the last few seconds
// (keep routing here, but back off), 200 "ok" otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	select {
	case <-s.done:
		writeErrorCode(w, http.StatusServiceUnavailable, "closed", ErrServerClosed)
		return
	default:
	}
	if s.draining.Load() {
		writeErrorCode(w, http.StatusServiceUnavailable, "draining", ErrDraining)
		return
	}
	status := "ok"
	if s.interactive.shedding() || s.bulk.shedding() {
		status = "degraded"
	}
	active := s.active.Load()
	s.modelMu.Lock()
	loaded := len(s.models)
	s.modelMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status,
		"model": map[string]any{
			"name":        active.id.Name,
			"version":     active.id.Version,
			"model":       active.key,
			"weight_hash": active.id.HashPrefix(),
		},
		"models_loaded":      loaded,
		"swaps":              s.swaps.Load(),
		"workers":            s.opts.Workers,
		"max_batch":          s.opts.MaxBatch,
		"default_tm":         s.opts.DefaultTM.String(),
		"precision":          s.opts.Precision.String(),
		"float32_lane":       s.Float32Available(),
		"in_shape":           active.inShape,
		"attack_workers":     s.opts.AttackWorkers,
		"attack_max_queries": s.opts.AttackBudget.MaxQueries,
		"attack_timeout_ms":  float64(s.opts.AttackTimeout) / float64(time.Millisecond),
		"filter":             s.filter.Name(),
		"detector":           s.detSpec,
		"interactive":        s.interactive.stats(),
		"bulk":               s.bulk.stats(),
		"cache":              s.cache.stats(),
	})
}

// modelsActionRequest is the POST /v1/models body: the model-table admin
// surface. "load" warms a registry version into the table, "activate"
// hot-swaps the default (retiring the old version unless "keep" is
// true), "unload" retires a non-active version.
type modelsActionRequest struct {
	Action string `json:"action"`
	Model  string `json:"model"`
	// Keep leaves the previous default loaded after an activate (for
	// per-request A/B selection) instead of retiring it.
	Keep bool `json:"keep,omitempty"`
}

// handleModels is the /v1/models route. GET lists the active version,
// every loaded version, and (when a registry is configured) the
// registry's catalog; POST executes a load/activate/unload action.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		resp := map[string]any{
			"active": s.ActiveModel().String(),
			"swaps":  s.swaps.Load(),
			"models": s.Models(),
		}
		if s.opts.Registry != nil {
			catalog, err := s.opts.Registry.List()
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			refs := make([]string, len(catalog))
			for i, man := range catalog {
				refs[i] = man.Name + "@" + man.Version
			}
			resp["registry"] = refs
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		post(s.routeModelsAction)(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

func (s *Server) routeModelsAction(_ context.Context, req *modelsActionRequest) (any, error) {
	var id pipeline.ModelID
	var err error
	switch req.Action {
	case "load":
		id, err = s.LoadModel(req.Model)
	case "activate":
		id, err = s.Activate(req.Model, req.Keep)
	case "unload":
		err = s.UnloadModel(req.Model)
	default:
		err = fmt.Errorf("unknown action %q (use load, activate or unload)", req.Action)
	}
	if err != nil {
		return nil, err
	}
	echo := id.String()
	if echo == "" {
		echo = req.Model
	}
	return map[string]any{
		"action": req.Action,
		"model":  echo,
		"active": s.ActiveModel().String(),
	}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// parsePrecision resolves an optional wire precision; empty selects def.
func parsePrecision(spec string, def pipeline.Precision) (pipeline.Precision, error) {
	if spec == "" {
		return def, nil
	}
	return pipeline.ParsePrecision(spec)
}

// parseTM resolves an optional wire threat model; empty selects def.
func parseTM(spec string, def pipeline.ThreatModel) (pipeline.ThreatModel, error) {
	if spec == "" {
		return def, nil
	}
	return pipeline.ParseThreatModel(spec)
}

// post adapts one POST route body to a handler. It owns the whole
// preamble and epilogue — method check, pooled bounded wire decode (413
// over maxBodyBytes, 400 otherwise), writeServeError, writeJSON — so a
// body is a pure function of its decoded request. A body just returns its
// input errors: writeServeError's default arm is the 400 bad_request
// reply.
func post[R any](body func(context.Context, *R) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		req := new(R)
		if !decodeJSON(w, r, req) {
			return
		}
		resp, err := body(r.Context(), req)
		if err != nil {
			writeServeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
		return false
	}
	return true
}

// decodeJSON reads the bounded request body into a pooled buffer and
// decodes it into dst with the wire decoder (wire.go). On failure it
// writes the error response — 413 for a body over maxBodyBytes, 400 for
// everything else — and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	d := wirePool.Get().(*wireDecoder)
	defer d.release()
	var err error
	if d.buf, err = httpbody.Read(w, r, maxBodyBytes, d.buf); err == nil {
		err = d.decode(dst)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeErrorCode(w, http.StatusRequestEntityTooLarge, "too_large", err)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
	}
	return false
}

// writeServeError is the unified error taxonomy of the serving surface.
// Every serving error becomes structured JSON ({"error": …, "code": …})
// with a status a client can act on:
//
//   - 429 Too Many Requests + Retry-After: an admission lane shed the
//     request (OverloadError) — retry after the hinted backoff.
//   - 503 Service Unavailable, code "draining"/"closed"/"disabled": the
//     server refuses new work — route to another replica.
//   - 504 Gateway Timeout, code "deadline": the server-side per-route
//     deadline fired before the work finished.
//   - 503, code "canceled": the client went away mid-request.
//   - 400 Bad Request, code "bad_request": an input problem.
func writeServeError(w http.ResponseWriter, err error) {
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		secs := int(ov.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErrorCode(w, http.StatusTooManyRequests, "overloaded", err)
	case errors.Is(err, ErrDraining):
		writeErrorCode(w, http.StatusServiceUnavailable, "draining", err)
	case errors.Is(err, ErrServerClosed):
		writeErrorCode(w, http.StatusServiceUnavailable, "closed", err)
	case errors.Is(err, ErrAttacksDisabled):
		writeErrorCode(w, http.StatusServiceUnavailable, "disabled", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErrorCode(w, http.StatusGatewayTimeout, "deadline", err)
	case errors.Is(err, context.Canceled):
		writeErrorCode(w, http.StatusServiceUnavailable, "canceled", err)
	default:
		writeErrorCode(w, http.StatusBadRequest, "bad_request", err)
	}
}

// errorCodeFor maps a bare status to its default machine-readable code.
func errorCodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorCode(w, status, errorCodeFor(status), err)
}

func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
