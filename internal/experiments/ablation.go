package experiments

import (
	"context"
	"fmt"

	"repro/internal/attacks"
	"repro/internal/filters"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Ablations quantify the design choices the figures depend on:
//
//   - filter strength vs. clean accuracy (the inverted-U of Key Insight 2);
//   - the FAdeML η noise-scaling factor (Eq. 3) vs. survival;
//   - the attack ε budget vs. payload success;
//   - LAR's circular footprint vs. an equal-radius square box.

// FilterStrengthPoint is one sample of the clean-accuracy-vs-strength curve.
type FilterStrengthPoint struct {
	FilterName string
	Taps       int
	Top1, Top5 float64
}

// RunFilterStrengthAblation evaluates clean test accuracy through each LAP
// and LAR configuration (plus the unfiltered baseline).
func RunFilterStrengthAblation(env *Env) []FilterStrengthPoint {
	ds := env.evalSubset()
	grid := []filters.Filter{filters.Identity{}}
	for _, np := range filters.PaperLAPSizes {
		grid = append(grid, filters.NewLAP(np))
	}
	for _, r := range filters.PaperLARRadii {
		grid = append(grid, filters.NewLAR(r))
	}
	var out []FilterStrengthPoint
	nets := env.workerNets(gridWorkers(ds.Len()))
	for _, f := range grid {
		m := train.Evaluate(nets, ds, func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
			return f.ApplyBatch(imgs)
		})
		taps := 1
		if s, ok := f.(interface{ Taps() int }); ok {
			taps = s.Taps()
		}
		out = append(out, FilterStrengthPoint{
			FilterName: f.Name(), Taps: taps, Top1: m.Top1, Top5: m.Top5,
		})
	}
	return out
}

// EtaPoint is one sample of the FAdeML η sweep.
type EtaPoint struct {
	Eta        float64
	Survived   bool
	Confidence float64
	NoiseLInf  float64
}

// RunEtaAblation sweeps the Eq. 3 noise-scaling factor for a FAdeML-BIM
// attack on scenario 1 through the given filter, measuring survival via a
// deployed pipeline.
func RunEtaAblation(ctx context.Context, env *Env, filter filters.Filter, etas []float64) ([]EtaPoint, error) {
	if len(etas) == 0 {
		etas = []float64{0.25, 0.5, 0.75, 1.0}
	}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	cls := attacks.NetClassifier{Net: env.Net}
	p := pipeline.New(env.Net, filter, nil)
	var out []EtaPoint
	for _, eta := range etas {
		fa := &attacks.FAdeML{
			Base:   &attacks.BIM{Epsilon: 0.25, Alpha: 0.02, Steps: 60, EarlyStop: true},
			Filter: filter,
			Eta:    eta,
		}
		res, err := fa.Generate(ctx, cls, clean, attacks.Goal{Source: sc.Source, Target: sc.Target})
		if err != nil {
			return nil, fmt.Errorf("eta ablation at %v: %w", eta, err)
		}
		pred, conf := p.Predict(res.Adversarial, pipeline.TM3)
		out = append(out, EtaPoint{
			Eta:        eta,
			Survived:   pred == sc.Target,
			Confidence: conf,
			NoiseLInf:  res.Noise.LInfNorm(),
		})
	}
	return out, nil
}

// BudgetPoint is one sample of the attack-budget sweep.
type BudgetPoint struct {
	Epsilon    float64
	Success    bool
	Confidence float64
}

// RunBudgetAblation sweeps the BIM ε budget against the bare network on
// scenario 1 — the knob behind Fig. 5/6.
func RunBudgetAblation(ctx context.Context, env *Env, budgets []float64) ([]BudgetPoint, error) {
	if len(budgets) == 0 {
		budgets = []float64{0.02, 0.04, 0.06, 0.08, 0.12, 0.16}
	}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	cls := attacks.NetClassifier{Net: env.Net}
	var out []BudgetPoint
	for _, eps := range budgets {
		atk := &attacks.BIM{Epsilon: eps, Alpha: eps / 10, Steps: 40, EarlyStop: true}
		res, err := atk.Generate(ctx, cls, clean, attacks.Goal{Source: sc.Source, Target: sc.Target})
		if err != nil {
			return nil, fmt.Errorf("budget ablation at %v: %w", eps, err)
		}
		out = append(out, BudgetPoint{Epsilon: eps, Success: res.Success, Confidence: res.Confidence})
	}
	return out, nil
}

// FootprintPoint compares LAR's disk against an equal-radius square box.
type FootprintPoint struct {
	Radius            int
	DiskTop5, BoxTop5 float64
}

// RunFootprintAblation contrasts the paper's circular LAR footprint with a
// square box filter of the same radius on clean accuracy. Each grid cell
// is one full evaluation fanned out over the worker pool via train.Evaluate
// (per-sample parallelism scales past the 2 × len(radii) cell count and
// is bit-identical to serial by construction).
func RunFootprintAblation(env *Env, radii []int) []FootprintPoint {
	if len(radii) == 0 {
		radii = filters.PaperLARRadii
	}
	ds := env.evalSubset()
	nets := env.workerNets(gridWorkers(ds.Len()))
	eval := func(f filters.Filter) float64 {
		return train.Evaluate(nets, ds, func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
			return f.ApplyBatch(imgs)
		}).Top5
	}
	out := make([]FootprintPoint, len(radii))
	for i, r := range radii {
		out[i] = FootprintPoint{
			Radius:   r,
			DiskTop5: eval(filters.NewLAR(r)),
			BoxTop5:  eval(filters.NewBox(r)),
		}
	}
	return out
}
