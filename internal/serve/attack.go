package serve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/filters"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Robustness-as-a-service: the serving layer exposes the attack API v2
// next to plain inference. /v1/attack crafts one adversarial example
// against the deployed pipeline and /v1/evaluate sweeps fooling rates
// over attack spec × filter spec × threat model — both under a hard server-side budget
// (Options.AttackBudget / AttackTimeout), cancellable through the request
// context, and capped at Options.AttackWorkers concurrent crafting jobs
// so attack traffic cannot starve the prediction pool.

// maxEvalCells bounds one /v1/evaluate request's attack × tm × filter ×
// case grid.
const maxEvalCells = 256

// ErrAttacksDisabled is returned when Options.AttackWorkers < 0 disabled
// the robustness endpoints.
var ErrAttacksDisabled = errors.New("serve: attack endpoints disabled")

// attacker is one crafting slot: a private weight-sharing pipeline clone
// an attack optimizes against without touching the prediction pools. The
// clone is rebuilt lazily when the slot is acquired for a different
// model version than it last served (slots are held exclusively, so the
// rebuild races nothing).
type attacker struct {
	key  string
	pipe *pipeline.Pipeline
}

// AttackRequest describes one server-side crafting job.
type AttackRequest struct {
	// Spec is the attack spec string, e.g. "pgd(eps=0.03,steps=40)".
	Spec string
	// Image is the clean image; nil renders the canonical Source sign via
	// Options.Render.
	Image *tensor.Tensor
	// Source and Target are the scenario classes (Target may be
	// attacks.Untargeted).
	Source, Target int
	// TM is the threat model for the deployed-side measurement; 0 selects
	// the server default (TM3 when the default is the unfiltered TM1).
	TM pipeline.ThreatModel
	// FilterAware wraps the attack in FAdeML so it models the deployed
	// pre-processing (and acquisition under TM2).
	FilterAware bool
	// Adaptive, when non-empty, overrides FilterAware with an explicit
	// crafting mode spec: "blind", "bpda", or "eot(draws=N)" (see
	// attacks.ParseAdaptive).
	Adaptive string
	// Model selects the attacked model version ("" = active default; see
	// Request.Model for the reference syntax).
	Model string
}

// Attack crafts one adversarial example against the deployed pipeline
// under the server-side budget and measures it under TM-I and the
// request's threat model. The request context cancels crafting at
// iteration granularity; a budget-cut run still returns its best-so-far
// example with Outcome.AttackerResult.Truncated set.
func (s *Server) Attack(ctx context.Context, req AttackRequest) (*core.Outcome, error) {
	if s.attackers == nil {
		return nil, ErrAttacksDisabled
	}
	ctx, leave, err := s.enter(ctx, s.bulk, 1, 0) // crafting is capped per run by attackContext
	if err != nil {
		return nil, err
	}
	defer leave()
	m, err := s.resolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	defer m.release()
	tm, err := s.attackTM(req.TM)
	if err != nil {
		return nil, err
	}
	atk, err := attacks.Parse(req.Spec)
	if err != nil {
		return nil, err
	}
	var mode attacks.AdaptiveMode
	if req.Adaptive != "" {
		if mode, err = attacks.ParseAdaptive(req.Adaptive); err != nil {
			return nil, err
		}
	}
	img, err := s.caseImage(m, req.Image, req.Source)
	if err != nil {
		return nil, err
	}
	a, release, err := s.acquireAttacker(ctx, m)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx, cancel := s.attackContext(ctx)
	defer cancel()
	return core.Execute(ctx, core.Run{
		Pipeline:    a.pipe,
		Attack:      atk,
		FilterAware: req.FilterAware,
		Adaptive:    mode,
		Seed:        evalEOTSeed,
		TM:          tm,
		Budget:      s.opts.AttackBudget,
	}, img, req.Source, req.Target)
}

// EvalCase is one source→target scenario of an evaluation sweep.
type EvalCase struct {
	Source int
	Target int
	// Image optionally overrides the rendered canonical source sign.
	Image *tensor.Tensor
}

// EvaluateRequest describes a fooling-rate sweep: every attack spec ×
// threat model × filter spec × case cell crafts one adversarial example
// and measures it through the deployed pipeline.
type EvaluateRequest struct {
	// Specs are attack spec strings.
	Specs []string
	// TMs are the threat models to deliver under (default: the server's
	// attack threat model).
	TMs []pipeline.ThreatModel
	// Filters are filter spec strings overriding the deployed
	// pre-processing per series ("none" measures the unfiltered
	// deployment; "chain(...)" composes). Empty sweeps the deployed
	// filter only. Filter-blind crafting (FilterAware false) runs once
	// per attack × case and is shared across this axis — cells of the
	// same example echo the same Queries/Truncated accounting.
	Filters []string
	// Cases are the scenarios (default: Options.EvalCases).
	Cases []EvalCase
	// FilterAware crafts filter-aware (FAdeML) instead of filter-blind.
	FilterAware bool
	// Adaptive, when non-empty, replaces the single FilterAware crafting
	// mode with an explicit axis of crafting modes — "blind", "bpda",
	// "eot(draws=N)" — so one sweep measures the same attack × tm ×
	// filter × case grid under several attacker strengths. Sweeps whose
	// axis includes "blind" plus at least one adaptive mode also report
	// per-series fooling-rate gaps (EvaluateResult.Gaps), the honest
	// robustness number for a randomized defense. Blind crafting is
	// shared across the tm × filter axes as before; bpda and eot craft
	// per cell (their optimization folds the cell's chain in).
	Adaptive []string
	// Model selects the evaluated model version ("" = active default); it
	// is pinned for the whole sweep, so a hot-swap mid-sweep cannot mix
	// versions inside one result grid.
	Model string
	// Detector adds the detection axis: every crafted example's TM-I
	// view is scored against this detector spec (bare "detect" for the
	// default ensemble) and each series reports detection rate at the
	// calibrated threshold plus threshold-free ROC AUC over
	// clean-vs-adversarial scores. Empty inherits the server's configured
	// detector; "none" disables detection for this sweep.
	Detector string
}

// EvalCell is one measured grid cell.
type EvalCell struct {
	// Attack is the crafting attack's canonical Name().
	Attack string `json:"attack"`
	// Filter is the canonical Name() of the pre-processing the cell was
	// measured through (the deployed filter unless overridden).
	Filter string `json:"filter"`
	// Adaptive is the crafting mode the cell's example was produced under
	// ("blind", "bpda", "eot(draws=N)").
	Adaptive string `json:"adaptive"`
	// Source and Target are the case classes.
	Source int `json:"source"`
	Target int `json:"target"`
	// TM1Pred/Conf is the unfiltered view of the adversarial example;
	// DeployedPred/Conf the view through the pipeline under TM.
	TM1Pred      int     `json:"tm1_pred"`
	TM1Conf      float64 `json:"tm1_conf"`
	DeployedPred int     `json:"deployed_pred"`
	DeployedConf float64 `json:"deployed_conf"`
	// Fooled reports goal achievement on the deployed view: the targeted
	// class was forced (or, untargeted, the source class was left).
	Fooled bool `json:"fooled"`
	// Truncated and Queries echo the crafting run's budget accounting.
	Truncated bool `json:"truncated"`
	Queries   int  `json:"queries"`
	// Detection carries the detector verdict on the example's TM-I view
	// when the sweep ran with a detection axis; nil otherwise.
	Detection *CellDetection `json:"detection,omitempty"`
	// TM is the delivery threat model of the deployed measurement (the
	// last wire key).
	TM pipeline.ThreatModel `json:"tm"`
}

// CellDetection is the detection-axis verdict of one grid cell: the
// crafted example's TM-I view scored against the sweep's detector.
type CellDetection struct {
	// Score is the detector's aggregated discrepancy for the adversarial
	// example.
	Score float64 `json:"score"`
	// Detected reports Score > the detector's calibrated threshold.
	Detected bool `json:"detected"`
}

// EvalSummary aggregates one attack × adaptive mode × threat model ×
// filter series.
type EvalSummary struct {
	Attack string `json:"attack"`
	Filter string `json:"filter"`
	// Adaptive is the series' crafting mode.
	Adaptive string `json:"adaptive"`
	// FoolingRate is fooled cells / cells.
	FoolingRate float64 `json:"fooling_rate"`
	// Truncated counts budget-cut crafting runs in the series.
	Truncated int `json:"truncated"`
	Cells     int `json:"cells"`
	// Detection aggregates the series' detection axis when the sweep ran
	// with a detector; nil otherwise.
	Detection *SummaryDetection `json:"detection,omitempty"`
	// TM is the series' delivery threat model (the last wire key).
	TM pipeline.ThreatModel `json:"tm"`
}

// SummaryDetection aggregates the detection axis of one evaluation
// series: how often the detector catches this attack's examples at its
// calibrated threshold, and how separable adversarial scores are from
// clean scores independent of any threshold.
type SummaryDetection struct {
	// Detector is the canonical Name() of the detector that scored the
	// series.
	Detector string `json:"detector"`
	// Threshold is the flag cutoff in force during the sweep.
	Threshold float64 `json:"threshold"`
	// Rate is detected cells / cells — the detection rate at Threshold.
	Rate float64 `json:"rate"`
	// CleanFPR is the fraction of the sweep's clean case images the
	// detector flags at Threshold (shared across every series of the
	// sweep — the case set does not vary per series).
	CleanFPR float64 `json:"clean_fpr"`
	// AUC is the threshold-free area under the ROC over the series'
	// adversarial scores versus the sweep's clean scores.
	AUC float64 `json:"auc"`
}

// EvalGap compares one adaptive series against its blind baseline: the
// fooling-rate increase an attacker gains by modelling the deployed
// chain honestly instead of ignoring it. A randomized defense whose
// blind fooling rate looks low but whose EOT gap is large is not robust
// — it was only obfuscating its gradients.
type EvalGap struct {
	Attack string `json:"attack"`
	Filter string `json:"filter"`
	// Adaptive is the stronger mode being compared against blind.
	Adaptive string `json:"adaptive"`
	// BlindRate and AdaptiveRate are the two series' fooling rates.
	BlindRate    float64 `json:"blind_rate"`
	AdaptiveRate float64 `json:"adaptive_rate"`
	// Gap is AdaptiveRate − BlindRate.
	Gap float64 `json:"gap"`
	// TM is the series' delivery threat model (the last wire key).
	TM pipeline.ThreatModel `json:"tm"`
}

// EvaluateResult is the sweep outcome.
type EvaluateResult struct {
	Cells     []EvalCell
	Summaries []EvalSummary
	// Gaps holds the blind-vs-adaptive fooling-rate comparisons when the
	// request's Adaptive axis contained "blind" plus at least one other
	// mode; nil otherwise.
	Gaps []EvalGap
}

// Evaluate runs the fooling-rate sweep. The whole request is validated
// before anything is crafted (see ARCHITECTURE.md for the order). The
// spec × mode × tm × filter × case grid then runs on core.RunGrid with
// one worker: crafting happens on the attack worker slots under the
// per-cell server budget, and the deployed-side measurements stream
// through the micro-batching prediction pool, so an evaluation coalesces
// with live prediction traffic. Cancelling ctx aborts the sweep between
// cells with the context error.
func (s *Server) Evaluate(ctx context.Context, req EvaluateRequest) (*EvaluateResult, error) {
	if s.attackers == nil {
		return nil, ErrAttacksDisabled
	}
	ctx, leave, err := s.enter(ctx, s.bulk, 1, s.opts.EvaluateTimeout)
	if err != nil {
		return nil, err
	}
	defer leave()
	m, err := s.resolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	defer m.release()
	if len(req.Specs) == 0 {
		return nil, errors.New("serve: evaluate needs at least one attack spec")
	}
	tms := req.TMs
	if len(tms) == 0 {
		tms = []pipeline.ThreatModel{0} // the server's attack threat model
	}
	if tms, err = parseEach(tms, s.attackTM); err != nil {
		return nil, err
	}
	cases := req.Cases
	if len(cases) == 0 {
		cases = s.opts.EvalCases
	}
	if len(cases) == 0 {
		return nil, errors.New("serve: evaluate needs cases (none in the request, none configured)")
	}
	// The filters axis: each entry overrides the deployed pre-processing
	// for one series ("none" measures the unfiltered deployment); with no
	// entries the deployed filter is the one series.
	flts := []filters.Filter{s.filter}
	if len(req.Filters) > 0 {
		flts, err = parseEach(req.Filters, func(spec string) (filters.Filter, error) {
			f, err := filters.Parse(spec)
			if f == nil && err == nil {
				f = filters.Identity{}
			}
			return f, err
		})
		if err != nil {
			return nil, err
		}
	}
	// The adaptive axis: explicit crafting modes, or the single legacy
	// mode FilterAware selects (blind, or bpda — FAdeML through the
	// deployed chain — which is what FilterAware always meant).
	modes := []attacks.AdaptiveMode{{Kind: attacks.AdaptiveBlind}}
	if req.FilterAware {
		modes[0].Kind = attacks.AdaptiveBPDA
	}
	if len(req.Adaptive) > 0 {
		if modes, err = parseEach(req.Adaptive, attacks.ParseAdaptive); err != nil {
			return nil, err
		}
	}
	g := core.Grid{Attacks: len(req.Specs), Modes: modes, TMs: len(tms), Filters: len(flts), Cases: len(cases)}
	if g.Len() > maxEvalCells {
		return nil, fmt.Errorf("serve: evaluate grid of %d cells exceeds the %d-cell cap", g.Len(), maxEvalCells)
	}
	atks, err := parseEach(req.Specs, attacks.Parse)
	if err != nil {
		return nil, err
	}
	// The detection axis: an explicit spec overrides the deployed
	// detector; "none" parses to nil and turns the axis off.
	det := s.opts.Detector
	if req.Detector != "" {
		if det, err = detect.Parse(req.Detector); err != nil {
			return nil, err
		}
	}
	imgs, err := parseEach(cases, func(ec EvalCase) (*tensor.Tensor, error) { return s.caseImage(m, ec.Image, ec.Source) })
	if err != nil {
		return nil, err
	}
	// Clean scores anchor the detection axis: scored once per case (the
	// case set is series-invariant) they give the sweep's operating
	// clean-FPR and the negative class of every per-series ROC.
	var cleanScores []float64
	cleanFPR := 0.0
	if det != nil {
		cleanScores = make([]float64, len(cases))
		flagged := 0
		for i, img := range imgs {
			sc, _, err := s.detectOn(ctx, m, det, img)
			if err != nil {
				return nil, fmt.Errorf("serve: evaluate clean detection on case %d→%d: %w", cases[i].Source, cases[i].Target, err)
			}
			cleanScores[i] = sc.Score
			if sc.Score > det.Threshold {
				flagged++
			}
		}
		cleanFPR = float64(flagged) / float64(len(cases))
	}

	// crafted is one crafting run with its cell-invariant measurements:
	// the TM-I (unfiltered) view and, with a detection axis, the
	// detector's score of that view. Blind cells share it across the
	// tm × filter axes, so they echo the same Queries/Truncated.
	type crafted struct {
		out *attacks.Result
		tm1 Prediction
		det *detect.Score
	}
	cellErr := func(c core.Cell, err error) error {
		ec := cases[c.Case]
		return fmt.Errorf("serve: evaluate %s (%s) under %v on %d→%d: %w",
			req.Specs[c.Attack], modes[c.Mode].Name(), tms[c.TM], ec.Source, ec.Target, err)
	}
	cells := make([]EvalCell, g.Len())
	err = core.RunGrid(ctx, g, 1, func(_ int, c core.Cell) (crafted, error) {
		var cr crafted
		a, release, err := s.acquireAttacker(ctx, m)
		if err != nil {
			return cr, cellErr(c, err)
		}
		craftCtx, cancel := s.attackContext(ctx)
		ec := cases[c.Case]
		cr.out, err = core.Craft(craftCtx, core.Run{
			// The attacker slot's network (held exclusively) behind the
			// cell's filter and the deployed acquisition.
			Pipeline: pipeline.New(a.pipe.Net, flts[c.Filter], s.acq),
			Attack:   atks[c.Attack],
			Adaptive: modes[c.Mode],
			Seed:     evalEOTSeed,
			TM:       tms[c.TM],
			Budget:   s.opts.AttackBudget,
		}, imgs[c.Case], attacks.Goal{Source: ec.Source, Target: ec.Target})
		cancel()
		release()
		if err == nil {
			cr.tm1, err = first(s.predict(ctx, m, Request{Images: []*tensor.Tensor{cr.out.Adversarial}, TM: pipeline.TM1}, false))
		}
		if err == nil && det != nil {
			var sc detect.Score
			sc, _, err = s.detectOn(ctx, m, det, cr.out.Adversarial)
			cr.det = &sc
		}
		if err != nil {
			return cr, cellErr(c, err)
		}
		return cr, nil
	}, func(_ int, c core.Cell, cr crafted) error {
		tm, ec := tms[c.TM], cases[c.Case]
		// Measurement traffic is internal: the sweep already holds a
		// bulk-lane slot, so its predictions must not consume interactive
		// admission (or be refused mid-sweep by a drain). Delivery through
		// the cell's filter runs on this goroutine, and the pool scores
		// the delivered tensor as its TM-I view.
		flt := flts[c.Filter]
		delivered := pipeline.New(m.proto.Net, flt, s.acq).Deliver(cr.out.Adversarial, tm)
		dep, err := first(s.predict(ctx, m, Request{Images: []*tensor.Tensor{delivered}, TM: pipeline.TM1}, false))
		if err != nil {
			return cellErr(c, err)
		}
		fooled := dep.Class != ec.Source
		if ec.Target != attacks.Untargeted {
			fooled = dep.Class == ec.Target
		}
		cells[c.Index] = EvalCell{
			Attack:       atks[c.Attack].Name(),
			TM:           tm,
			Filter:       flt.Name(),
			Adaptive:     modes[c.Mode].Name(),
			Source:       ec.Source,
			Target:       ec.Target,
			TM1Pred:      cr.tm1.Class,
			TM1Conf:      cr.tm1.Prob,
			DeployedPred: dep.Class,
			DeployedConf: dep.Prob,
			Fooled:       fooled,
			Truncated:    cr.out.Truncated,
			Queries:      cr.out.Queries,
		}
		if cr.det != nil {
			cells[c.Index].Detection = &CellDetection{Score: cr.det.Score, Detected: cr.det.Score > det.Threshold}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &EvaluateResult{Cells: cells, Summaries: summarize(cells, len(cases), det, cleanScores, cleanFPR)}
	// The honest-robustness report: when the request swept an explicit
	// adaptive axis containing blind plus stronger modes, compare each
	// stronger series against its blind baseline.
	if len(req.Adaptive) > 0 {
		res.Gaps = blindGaps(res.Summaries)
	}
	return res, nil
}

// summarize aggregates every run of perSeries consecutive cells — one
// attack × mode × tm × filter series — into its summary. With a detector,
// each series also reports its detection rate and its ROC AUC against the
// sweep's clean scores.
func summarize(cells []EvalCell, perSeries int, det *detect.Detector, cleanScores []float64, cleanFPR float64) []EvalSummary {
	var out []EvalSummary
	for lo := 0; lo < len(cells); lo += perSeries {
		series := cells[lo : lo+perSeries]
		sm := EvalSummary{Attack: series[0].Attack, TM: series[0].TM, Filter: series[0].Filter, Adaptive: series[0].Adaptive, Cells: perSeries}
		var advScores []float64
		detected := 0
		for _, cell := range series {
			if cell.Fooled {
				sm.FoolingRate++
			}
			if cell.Truncated {
				sm.Truncated++
			}
			if cell.Detection != nil {
				advScores = append(advScores, cell.Detection.Score)
				if cell.Detection.Detected {
					detected++
				}
			}
		}
		sm.FoolingRate /= float64(sm.Cells)
		if det != nil {
			sm.Detection = &SummaryDetection{
				Detector:  det.Name(),
				Threshold: det.Threshold,
				Rate:      float64(detected) / float64(sm.Cells),
				CleanFPR:  cleanFPR,
				AUC:       detect.AUC(cleanScores, advScores),
			}
		}
		out = append(out, sm)
	}
	return out
}

// blindGaps compares every non-blind series with the blind series of the
// same attack, threat model and filter.
func blindGaps(summaries []EvalSummary) []EvalGap {
	type gapKey struct {
		attack string
		tm     pipeline.ThreatModel
		filter string
	}
	blindRate := map[gapKey]float64{}
	for _, sm := range summaries {
		if sm.Adaptive == attacks.AdaptiveBlind {
			blindRate[gapKey{sm.Attack, sm.TM, sm.Filter}] = sm.FoolingRate
		}
	}
	var gaps []EvalGap
	for _, sm := range summaries {
		b, ok := blindRate[gapKey{sm.Attack, sm.TM, sm.Filter}]
		if !ok || sm.Adaptive == attacks.AdaptiveBlind {
			continue
		}
		gaps = append(gaps, EvalGap{
			Attack:       sm.Attack,
			TM:           sm.TM,
			Filter:       sm.Filter,
			Adaptive:     sm.Adaptive,
			BlindRate:    b,
			AdaptiveRate: sm.FoolingRate,
			Gap:          sm.FoolingRate - b,
		})
	}
	return gaps
}

// parseEach resolves every entry of a request axis, failing on the first
// bad one.
func parseEach[S, T any](in []S, parse func(S) (T, error)) ([]T, error) {
	out := make([]T, len(in))
	for i, v := range in {
		var err error
		if out[i], err = parse(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalEOTSeed is the base seed of server-side adaptive EOT draw streams:
// fixed, so repeated sweeps are reproducible (the per-draw seeds come
// from filters.DrawSeed and the per-image streams from
// filters.ImageSeed, so a fixed base loses no diversity).
const evalEOTSeed uint64 = 1

// attackTM resolves a requested threat model for attack execution: only
// the filtered delivery models TM2/TM3 are measurable by core.Execute,
// so 0 falls back to the server default when that is one of them and to
// TM3 otherwise.
func (s *Server) attackTM(tm pipeline.ThreatModel) (pipeline.ThreatModel, error) {
	if tm == 0 {
		if s.opts.DefaultTM == pipeline.TM2 || s.opts.DefaultTM == pipeline.TM3 {
			return s.opts.DefaultTM, nil
		}
		return pipeline.TM3, nil
	}
	if tm != pipeline.TM2 && tm != pipeline.TM3 {
		return 0, fmt.Errorf("serve: attack threat model must be TM2 or TM3, got %v", tm)
	}
	return tm, nil
}

// caseImage resolves a case's clean image: an explicit image (validated
// against the selected model's input shape) or the rendered canonical
// source sign.
func (s *Server) caseImage(m *servedModel, img *tensor.Tensor, source int) (*tensor.Tensor, error) {
	if img == nil {
		if s.opts.Render == nil {
			return nil, errors.New("serve: no image supplied and no canonical renderer configured")
		}
		img = s.opts.Render(source, m.inShape[1])
		if img == nil {
			return nil, fmt.Errorf("serve: no canonical image for class %d", source)
		}
	}
	if err := s.validate(m, img, pipeline.TM1, pipeline.Float64, true); err != nil {
		return nil, err
	}
	return img, nil
}

// acquireAttacker checks one crafting slot out of the pool, blocking
// until a slot frees, the caller gives up, or the server closes. The
// slot's pipeline clone is rebuilt for m when the slot last served a
// different model version.
func (s *Server) acquireAttacker(ctx context.Context, m *servedModel) (*attacker, func(), error) {
	if s.attackers == nil {
		return nil, nil, ErrAttacksDisabled
	}
	select {
	case a := <-s.attackers:
		if a.key != m.key {
			a.pipe = pipeline.NewModel(m.id, m.proto.Net.Clone(), s.filter, s.acq)
			a.key = m.key
		}
		return a, func() { s.attackers <- a }, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-s.done:
		return nil, nil, ErrServerClosed
	}
}

// attackContext derives the crafting context: the caller's cancellation,
// the server-side wall-clock cap, and shutdown abort. The returned cancel
// releases the watcher goroutine.
func (s *Server) attackContext(ctx context.Context) (context.Context, context.CancelFunc) {
	cancelTimeout := context.CancelFunc(func() {})
	if s.opts.AttackTimeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, s.opts.AttackTimeout)
	}
	ctx, cancel := context.WithCancel(ctx)
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-s.done:
			cancel()
		case <-stopWatch:
		case <-ctx.Done():
		}
	}()
	return ctx, func() {
		close(stopWatch)
		cancel()
		cancelTimeout()
	}
}
