package attacks

import (
	"context"
	"fmt"

	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/tensor"
)

// FAdeML is the paper's pre-processing noise-Filter-aware Adversarial ML
// attack (Section IV). It wraps any gradient-based attack from the library
// and makes it filter-aware: the wrapped attack's optimization runs against
// a FilteredClassifier whose forward pass applies the deployed
// pre-processing filter chain before the DNN, and whose backward pass
// chains the filters' vector-Jacobian products into the input gradient
// (Eq. 3's δn/δf(cost) term).
//
// The six steps of the paper's methodology map onto Generate as follows:
//
//  1. choose reference sample x and target class y  → the (x, goal) inputs;
//  2. compute prediction probabilities under TM I   → probsClean, probsTargetRef;
//  3. add scaled adversarial noise                  → the wrapped attack's update;
//  4. compute probabilities under TM II/III         → the FilteredClassifier forward;
//  5. compare TM I vs TM II/III via Eq. 2           → CostTrace entries;
//  6. iterate the optimization                      → the wrapped attack's loop.
type FAdeML struct {
	// Base is the underlying attack (L-BFGS, FGSM, BIM, ... from the library).
	Base Attack
	// Filter is the modeled pre-processing chain (LAP/LAR configuration,
	// optionally preceded by the acquisition stage under Threat Model II).
	Filter filters.Filter
	// Eta scales the final noise (the η of Eq. 3); 1 keeps the wrapped
	// attack's own budget. Values below 1 trade attack strength for
	// imperceptibility.
	Eta float64
}

// NewFAdeML wraps base so it optimizes through filter.
func NewFAdeML(base Attack, filter filters.Filter) *FAdeML {
	return &FAdeML{Base: base, Filter: filter, Eta: 1}
}

// Name implements Attack. The wrapper is not a registry entry (it needs a
// filter), so its name is a display form, not a Parse spec.
func (f *FAdeML) Name() string {
	return fmt.Sprintf("FAdeML[%s|%s]", f.Base.Name(), f.Filter.Name())
}

// Generate implements Attack: it runs the base attack against the
// filter-composed classifier, then rescales the noise by Eta and reports
// success through the same filtered view (the attacker-side estimate of
// Threat Model II/III behaviour). Context, budget and observer flow
// through unchanged to the base attack; queries are counted against the
// filtered classifier per the Result invariant (the η<1 path adds exactly
// one evaluation for the rescaled image's prediction).
func (f *FAdeML) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := f.validate(c, goal); err != nil {
		return nil, err
	}
	fc := FilteredClassifier{Inner: c, Pre: f.Filter}
	res, err := f.Base.Generate(ctx, fc, x, goal)
	if err != nil {
		return nil, fmt.Errorf("attacks: FAdeML base attack: %w", err)
	}
	if f.Eta != 1 {
		adv := x.Clone()
		adv.AddScaled(f.Eta, res.Noise)
		clampUnit(adv)
		pred, conf := Predict(fc, adv)
		return &Result{
			Adversarial: adv,
			Noise:       tensor.Sub(adv, x),
			Success:     goal.achieved(pred),
			PredClass:   pred,
			Confidence:  conf,
			Iterations:  res.Iterations,
			Queries:     res.Queries + 1,
			Truncated:   res.Truncated,
		}, nil
	}
	return res, nil
}

// validate checks the wrapper's configuration and the goal; Generate and
// GenerateWithTrace share it.
func (f *FAdeML) validate(c Classifier, goal Goal) error {
	if f.Base == nil || f.Filter == nil {
		return fmt.Errorf("attacks: FAdeML needs both a base attack and a filter")
	}
	if f.Eta <= 0 || f.Eta > 1 {
		return fmt.Errorf("attacks: FAdeML eta %v outside (0, 1]", f.Eta)
	}
	return goal.Validate(c)
}

// CostTrace records the Eq. 2 cost-function trajectory of a filter-aware
// optimization: for each checkpoint, the divergence between the top-5
// probability mass the adversarial example achieves under Threat Model I
// (no filter in the attacker path) and under Threat Model II/III (through
// the filter).
type CostTrace struct {
	// Steps holds f(cost) = Σ_{n=1..5} P_I(Cn) − P_II(C*n) per checkpoint.
	Steps []float64
}

// Eq2Cost computes the paper's Eq. 2 cost between two probability vectors:
// the summed top-k probability mass of probsI minus that of probsII.
func Eq2Cost(probsI, probsII []float64, k int) float64 {
	sumTop := func(p []float64) float64 {
		s := 0.0
		for _, idx := range mathx.TopKIndices(p, k) {
			s += p[idx]
		}
		return s
	}
	return sumTop(probsI) - sumTop(probsII)
}

// GenerateWithTrace runs an explicit iterative Eq. 3 optimization —
// x* = η·(n + δn/δf(cost)) + x — recording the Eq. 2 cost after every
// iteration. It is the paper's Fig. 8 loop made concrete: a BIM-style
// filter-aware descent whose per-step cost compares the unfiltered (TM I)
// and filtered (TM II/III) views of the current adversarial example.
//
// steps and alpha control the iteration count and step size (each step
// moves α·Eta); epsilon is the L∞ budget. The wrapper and goal are checked
// as in Generate, and the goal must be targeted. The returned trace has
// one entry per completed iteration; ctx cancellation and budgets truncate
// the loop like any Generate call, flagging the Result.
func (f *FAdeML) GenerateWithTrace(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal, steps int, alpha, epsilon float64) (*Result, *CostTrace, error) {
	if err := f.validate(c, goal); err != nil {
		return nil, nil, err
	}
	if !goal.IsTargeted() {
		return nil, nil, fmt.Errorf("attacks: GenerateWithTrace requires a targeted goal")
	}
	if steps <= 0 || alpha <= 0 || epsilon <= 0 {
		return nil, nil, fmt.Errorf("attacks: trace parameters must be positive")
	}
	fc := FilteredClassifier{Inner: c, Pre: f.Filter}
	e := begin(ctx, f.Name())
	adv := x.Clone()
	trace := &CostTrace{}
	// The step descends the targeted loss through the filter (δ/δ f(cost)).
	iters := e.signSteps(fc, x, adv, goal, signLoop{
		steps: steps, alpha: alpha * f.Eta, eps: epsilon, next: e.ceDirection(fc, goal),
		after: func(adv *tensor.Tensor) {
			// Eq. 2 checkpoint: TM I (direct) vs TM II/III (filtered) views.
			probsI := Probs(c, adv)
			probsII := Probs(fc, adv)
			e.query(2)
			trace.Steps = append(trace.Steps, Eq2Cost(probsI, probsII, 5))
		},
	})
	res := e.finish(fc, x, adv, goal, iters)
	return res, trace, nil
}
