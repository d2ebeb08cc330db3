package experiments

import (
	"context"
	"fmt"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/train"
)

// SweepOptions narrows a Fig. 7 / Fig. 9 run. Zero values select the
// paper's full grid.
type SweepOptions struct {
	// Scenarios defaults to the paper's five payloads.
	Scenarios []Scenario
	// AttackNames defaults to the paper trio (lbfgs, fgsm, bim).
	AttackNames []string
	// LAPSizes and LARRadii default to the paper sweeps
	// ({4,8,16,32,64} and {1..5}).
	LAPSizes []int
	LARRadii []int
	// FilterSpecs, when set, replaces the LAP/LAR grid with arbitrary
	// filter specs ("median(r=2)", "chain(median(r=1),histeq(bins=64))",
	// "none" for the unfiltered baseline) — the defense-side counterpart
	// of AttackNames. Specs are parsed with filters.Parse; a bad spec
	// fails the sweep up front.
	FilterSpecs []string
	// IncludeCurves enables the accuracy-vs-filter curves (the expensive
	// part: every test image in the attack subset is attacked).
	IncludeCurves bool
	// CurveScenarios restricts which scenarios get accuracy curves
	// (defaults to Scenarios).
	CurveScenarios []Scenario
}

func (o *SweepOptions) fill() {
	if o.Scenarios == nil {
		o.Scenarios = PaperScenarios
	}
	if o.AttackNames == nil {
		o.AttackNames = attacks.PaperAttacks
	}
	if o.LAPSizes == nil {
		o.LAPSizes = filters.PaperLAPSizes
	}
	if o.LARRadii == nil {
		o.LARRadii = filters.PaperLARRadii
	}
	if o.CurveScenarios == nil {
		o.CurveScenarios = o.Scenarios
	}
}

// filterGrid builds the sweep's filter configurations: explicit
// FilterSpecs when given, otherwise the identity baseline plus the LAP
// and LAR sweeps.
func (o *SweepOptions) filterGrid() ([]filters.Filter, error) {
	if len(o.FilterSpecs) > 0 {
		grid := make([]filters.Filter, len(o.FilterSpecs))
		for i, spec := range o.FilterSpecs {
			f, err := filters.Parse(spec)
			if err != nil {
				return nil, fmt.Errorf("sweep filter %d: %w", i+1, err)
			}
			if f == nil {
				f = filters.Identity{}
			}
			grid[i] = f
		}
		return grid, nil
	}
	grid := []filters.Filter{filters.Identity{}}
	for _, np := range o.LAPSizes {
		grid = append(grid, filters.NewLAP(np))
	}
	for _, r := range o.LARRadii {
		grid = append(grid, filters.NewLAR(r))
	}
	return grid, nil
}

// Fig7Panel is one canonical-image cell of Fig. 7: a filter-blind attack
// evaluated through a filter under Threat Model III.
type Fig7Panel struct {
	Scenario   Scenario
	AttackName string
	FilterName string
	// TM1Pred/Conf is the unfiltered (TM-I) view of the adversarial image.
	TM1Pred int
	TM1Conf float64
	// FilteredPred/Conf is the TM-III view through the filter.
	FilteredPred int
	FilteredConf float64
	// Neutralized: TM-I hit the target but the filtered prediction
	// reverted to the source class.
	Neutralized bool
}

// Fig7Curve is one accuracy-vs-filter series of Fig. 7.
type Fig7Curve struct {
	Scenario   Scenario
	AttackName string
	// FilterNames and Top5 are parallel: Top5[i] is the top-5 accuracy of
	// the attacked subset delivered through FilterNames[i].
	FilterNames []string
	Top5        []float64
}

// Fig7Result reproduces Fig. 7: classical (filter-blind) attacks are
// neutralized by LAP/LAR smoothing at the cost of some confidence and
// accuracy, with an inverted-U accuracy profile across filter strength.
type Fig7Result struct {
	ProfileName string
	Panels      []Fig7Panel
	Curves      []Fig7Curve
	// FilterAware tags the result as a Fig. 9 run (shared machinery).
	FilterAware bool
}

// RunFig7 executes the Fig. 7 grid: filter-blind attacks, filtered
// delivery (Threat Model III).
func RunFig7(ctx context.Context, env *Env, opt SweepOptions) (*Fig7Result, error) {
	opt.fill()
	return runFilterSweep(ctx, env, opt, false)
}

// runFilterSweep is shared between Fig. 7 (filterAware=false) and Fig. 9
// (filterAware=true). The only difference is whether the attack models the
// filter during generation: blind crafting runs once per attack × scenario
// and is shared across the filter axis, filter-aware crafting runs per
// panel. Panels are a grid of attacks × filters × scenarios on
// core.RunGrid; the curves are one craftStream grid per curve scenario,
// with the attacked subset on the case axis, reduced per (attack, filter)
// by train.Evaluate.
func runFilterSweep(ctx context.Context, env *Env, opt SweepOptions, filterAware bool) (*Fig7Result, error) {
	grid, err := opt.filterGrid()
	if err != nil {
		return nil, err
	}
	fig, build, mode := "fig7", buildAttack, blind
	if filterAware {
		fig, build, mode = "fig9", buildFilterAwareAttack, bpda
	}
	atks, err := buildAll(opt.AttackNames, build)
	if err != nil {
		return nil, err
	}

	// Panels only cover real filters, never the identity baseline.
	var real []filters.Filter
	for _, f := range grid {
		if _, ok := f.(filters.Identity); !ok {
			real = append(real, f)
		}
	}
	nS, nF := len(opt.Scenarios), len(real)
	g := core.Grid{Attacks: len(atks), Modes: []attacks.AdaptiveMode{mode}, TMs: 1, Filters: nF, Cases: nS}
	res := &Fig7Result{ProfileName: env.Profile.Name, FilterAware: filterAware, Panels: make([]Fig7Panel, g.Len())}
	nets := env.workerNets(gridWorkers(g.Len()))
	err = core.RunGrid(ctx, g, len(nets), func(w int, c core.Cell) (*tensor.Tensor, error) {
		sc, f := opt.Scenarios[c.Case], real[c.Filter]
		out, err := craft(ctx, nets[w], f, atks[c.Attack], mode, sc.CleanImage(env.Profile.Size), sc.goal())
		if err != nil {
			return nil, fmt.Errorf("%s %s on %s: %w", fig, atks[c.Attack].Name(), sc, err)
		}
		return out.Adversarial, nil
	}, func(w int, c core.Cell, adv *tensor.Tensor) error {
		sc, f := opt.Scenarios[c.Case], real[c.Filter]
		// Both threat-model views score in one batched forward; rows are
		// bit-identical to separate Probs calls.
		views := pipeline.New(nets[w], f, nil).ProbsViews(adv, pipeline.TM1, pipeline.TM3)
		pi, px := mathx.ArgMax(views[0]), mathx.ArgMax(views[1])
		// Panels read attack, scenario, filter — the filter fastest.
		res.Panels[(c.Attack*nS+c.Case)*nF+c.Filter] = Fig7Panel{
			Scenario:     sc,
			AttackName:   attackLabel(opt.AttackNames[c.Attack]),
			FilterName:   f.Name(),
			TM1Pred:      pi,
			TM1Conf:      views[0][pi],
			FilteredPred: px,
			FilteredConf: views[1][px],
			Neutralized:  pi == sc.Target && px == sc.Source,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !opt.IncludeCurves {
		return res, nil
	}

	// Curves: Top-5 accuracy of the attacked subset per filter
	// configuration, the unattacked subset first.
	ds := env.attackSubset()
	n := ds.Len()
	for _, sc := range opt.CurveScenarios {
		advs, err := craftStream(ctx, env, []Scenario{sc}, ds, atks, grid, mode)
		if err != nil {
			return nil, fmt.Errorf("%s curves %w", fig, err)
		}
		for a, name := range append([]string{"none"}, opt.AttackNames...) {
			curve := Fig7Curve{Scenario: sc, AttackName: attackLabel(name)}
			for fi, f := range grid {
				var eval train.Dataset = ds
				if a > 0 {
					eval = newSliceDataset(advs[((a-1)*len(grid)+fi)*n:][:n], ds)
				}
				// TM-III delivery with no acquisition is the filter alone,
				// run batched through Filter.ApplyBatch.
				m := train.Evaluate(env.workerNets(gridWorkers(n)), eval,
					func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
						return f.ApplyBatch(imgs)
					})
				curve.FilterNames = append(curve.FilterNames, f.Name())
				curve.Top5 = append(curve.Top5, m.Top5)
			}
			res.Curves = append(res.Curves, curve)
		}
	}
	return res, nil
}

// NeutralizationRate returns the fraction of panels where the filter
// reverted a TM-I-successful attack to the source class.
func (r *Fig7Result) NeutralizationRate() float64 {
	applicable, neutralized := 0, 0
	for _, p := range r.Panels {
		if p.TM1Pred == p.Scenario.Target {
			applicable++
			if p.Neutralized {
				neutralized++
			}
		}
	}
	if applicable == 0 {
		return 0
	}
	return float64(neutralized) / float64(applicable)
}

// SurvivalRate returns the fraction of panels whose filtered prediction
// still hits the scenario target (the Fig. 9 headline metric).
func (r *Fig7Result) SurvivalRate() float64 {
	if len(r.Panels) == 0 {
		return 0
	}
	hits := 0
	for _, p := range r.Panels {
		if p.FilteredPred == p.Scenario.Target {
			hits++
		}
	}
	return float64(hits) / float64(len(r.Panels))
}

// Table renders the panels grid plus any curves.
func (r *Fig7Result) Table() string {
	figName := "Fig. 7 — filter-blind attacks through LAP/LAR (TM-III)"
	if r.FilterAware {
		figName = "Fig. 9 — FAdeML filter-aware attacks through LAP/LAR (TM-III)"
	}
	t := NewTable(fmt.Sprintf("%s (profile %s)", figName, r.ProfileName),
		"Attack", "Scenario", "Filter", "TM-I view", "Filtered view", "Outcome")
	for _, p := range r.Panels {
		outcome := "-"
		switch {
		case p.FilteredPred == p.Scenario.Target:
			outcome = "SURVIVED"
		case p.Neutralized:
			outcome = "neutralized"
		case p.FilteredPred == p.Scenario.Source:
			outcome = "reverted"
		}
		t.AddRow(
			p.AttackName,
			fmt.Sprintf("%d", p.Scenario.ID),
			p.FilterName,
			fmt.Sprintf("%s @ %s", gtsrb.ClassName(p.TM1Pred), pct(p.TM1Conf)),
			fmt.Sprintf("%s @ %s", gtsrb.ClassName(p.FilteredPred), pct(p.FilteredConf)),
			outcome,
		)
	}
	out := t.String()
	if len(r.Curves) > 0 {
		ct := NewTable("Top-5 accuracy vs filter configuration",
			append([]string{"Scenario", "Attack"}, r.Curves[0].FilterNames...)...)
		for _, c := range r.Curves {
			row := []any{fmt.Sprintf("%d", c.Scenario.ID), c.AttackName}
			for _, v := range c.Top5 {
				row = append(row, pct(v))
			}
			ct.AddRow(row...)
		}
		out += "\n" + ct.String()
	}
	return out
}
