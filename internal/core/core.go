// Package core orchestrates the paper's two methodologies end to end:
//
//   - Section III (analysis): run a classical, filter-blind attack against
//     the bare network, then measure what the deployed pipeline — with its
//     pre-processing noise filter — actually predicts under Threat Models
//     I and II/III.
//   - Section IV (FAdeML): run the same attack filter-aware, folding the
//     pipeline's pre-processing into the attacker's differentiable model,
//     and measure again.
//
// Everything below core (tensor/nn/filters/attacks/pipeline/analysis) is a
// substrate; everything above it (experiments, cmd tools, examples) is
// presentation. Code that wants "attack this sign through this pipeline
// and tell me what happened" calls core.Execute; code that sweeps a grid
// of such cells — every figure and the serving layer's /v1/evaluate —
// walks it with RunGrid and crafts each cell with Craft.
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/attacks"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Run describes one attack execution against a deployed pipeline.
type Run struct {
	// Pipeline is the deployed system under attack.
	Pipeline *pipeline.Pipeline
	// Attack is the base attack from the library.
	Attack attacks.Attack
	// FilterAware selects the Section IV (FAdeML) attacker, which models
	// the pipeline's pre-processing; false is the Section III classical
	// attacker that sees only the bare network.
	FilterAware bool
	// Adaptive, when its Kind is non-empty, overrides FilterAware with an
	// explicit crafting mode: blind (bare network), bpda (through the
	// deployed chain via declared VJPs — what FilterAware selects), or
	// eot(draws=N) (BPDA plus gradient averaging over fresh draws of every
	// stochastic stage). The zero value keeps the legacy FilterAware
	// behaviour.
	Adaptive attacks.AdaptiveMode
	// Seed is the base of the adaptive EOT draw stream (only read when
	// Adaptive.Kind is "eot"); distinct seeds sample independent
	// randomness draws.
	Seed uint64
	// TM is the threat model governing where the adversarial image enters
	// the pipeline (TM2 or TM3 for filtered delivery).
	TM pipeline.ThreatModel
	// Budget caps the attack's work; the zero value is unlimited. A run
	// that exhausts it (or whose ctx is cancelled) completes with the
	// best-so-far adversarial example, flagged via AttackerResult.Truncated.
	Budget attacks.Budget
	// Observer, when set, receives per-iteration attack progress.
	Observer attacks.Observer
}

// Validate checks the run configuration.
func (r Run) Validate() error {
	if r.Pipeline == nil {
		return fmt.Errorf("core: run needs a pipeline")
	}
	if r.Attack == nil {
		return fmt.Errorf("core: run needs an attack")
	}
	if r.TM != pipeline.TM2 && r.TM != pipeline.TM3 {
		return fmt.Errorf("core: run threat model must be TM2 or TM3, got %v", r.TM)
	}
	switch r.Adaptive.Kind {
	case "", attacks.AdaptiveBlind, attacks.AdaptiveBPDA:
	case attacks.AdaptiveEOT:
		if r.Adaptive.Draws <= 0 {
			return fmt.Errorf("core: adaptive EOT needs positive draws, got %d", r.Adaptive.Draws)
		}
	default:
		return fmt.Errorf("core: unknown adaptive mode %q (have %v)", r.Adaptive.Kind, attacks.AdaptiveModes())
	}
	return nil
}

// Outcome is the result of one Execute call.
type Outcome struct {
	// AttackerResult is the attack's own view of success (through the
	// attacker's model, filtered for FAdeML, bare otherwise).
	AttackerResult *attacks.Result
	// Comparison is the deployed-side measurement: clean baseline, TM I,
	// TM II/III, Eq. 2 cost, neutralization/survival flags.
	Comparison analysis.Comparison
}

// Execute crafts an adversarial example from the clean image for the
// scenario source→target and measures it against the deployed pipeline:
// Craft, then analysis.Compare. ctx cancellation and Run.Budget truncate
// the attack at iteration granularity — the outcome still carries the
// best-so-far adversarial example and its deployed-side measurement,
// flagged Truncated.
func Execute(ctx context.Context, run Run, clean *tensor.Tensor, source, target int) (*Outcome, error) {
	if err := run.Validate(); err != nil {
		return nil, err
	}
	res, attackName, err := craft(ctx, run, clean, attacks.Goal{Source: source, Target: target})
	if err != nil {
		return nil, fmt.Errorf("core: attack %s: %w", attackName, err)
	}
	cmp := analysis.Compare(run.Pipeline, clean, res.Adversarial, source, target, run.TM, attackName)
	return &Outcome{AttackerResult: res, Comparison: cmp}, nil
}

// Craft is the crafting half of Execute: it generates an adversarial
// example of clean for goal under run's budget, observer and crafting
// mode, and returns the attack's own error unwrapped. It is the one place
// a crafting mode becomes an (attack, classifier) pair:
//
//   - blind: the base attack against the bare network;
//   - bpda, or FilterAware with no explicit mode: FAdeML over
//     Pipeline.AttackerModel(TM) against the bare network;
//   - eot: the base attack against the mode's expectation over re-seeded
//     draws of that same attacker model.
func Craft(ctx context.Context, run Run, clean *tensor.Tensor, goal attacks.Goal) (*attacks.Result, error) {
	if err := run.Validate(); err != nil {
		return nil, err
	}
	res, _, err := craft(ctx, run, clean, goal)
	return res, err
}

// craft is Craft on a validated run; it also names the attacker it built.
func craft(ctx context.Context, run Run, clean *tensor.Tensor, goal attacks.Goal) (*attacks.Result, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !run.Budget.Unlimited() {
		ctx = attacks.WithBudget(ctx, run.Budget)
	}
	if run.Observer != nil {
		ctx = attacks.WithObserver(ctx, run.Observer)
	}
	base := attacks.NetClassifier{Net: run.Pipeline.Net}
	var cls attacks.Classifier = base
	var atk attacks.Attack = run.Attack
	attackName := run.Attack.Name()
	switch {
	case run.Adaptive.Kind == attacks.AdaptiveEOT:
		model := run.Pipeline.AttackerModel(run.TM)
		cls = run.Adaptive.Classifier(base, model, run.Seed)
		attackName = fmt.Sprintf("EOT[%s|%s|draws=%d]", run.Attack.Name(), model.Name(), run.Adaptive.Draws)
	case run.Adaptive.Kind == attacks.AdaptiveBPDA,
		run.Adaptive.Kind == "" && run.FilterAware:
		fademl := attacks.NewFAdeML(run.Attack, run.Pipeline.AttackerModel(run.TM))
		atk = fademl
		attackName = fademl.Name()
	}
	res, err := atk.Generate(ctx, cls, clean, goal)
	return res, attackName, err
}
