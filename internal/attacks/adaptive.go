package attacks

import (
	"fmt"

	"repro/internal/filters"
	"repro/internal/spec"
)

// Adaptive crafting modes: how much of the deployed pre-processing
// pipeline the attacker folds into the model it differentiates through.
// A *blind* attacker ignores the pipeline entirely (the classical
// attacker FAdeML defends against); a *BPDA* attacker pushes its forward
// pass through the deployed chain and its backward pass through each
// stage's declared VJP (exact where the stage is differentiable,
// straight-through identity where it is not); an *EOT* attacker
// additionally averages gradients over fresh draws of every stochastic
// stage, which is the honest way to attack a randomized defense
// (Athalye et al., ICML 2018) — a single-draw BPDA attacker overfits to
// one realization the deployed seed will never reproduce.

// Adaptive mode kinds.
const (
	AdaptiveBlind = "blind"
	AdaptiveEOT   = "eot"
	AdaptiveBPDA  = "bpda"
)

// defaultEOTDraws is the draw count when an "eot" spec omits draws=.
const defaultEOTDraws = 8

// AdaptiveMode selects how an attack's differentiable view of the victim
// is built from the bare classifier and the deployed pre-processing
// chain. The zero value is not valid; build one with ParseAdaptive or
// the Adaptive* kind constants.
type AdaptiveMode struct {
	// Kind is AdaptiveBlind, AdaptiveEOT or AdaptiveBPDA.
	Kind string
	// Draws is the number of stochastic-stage samples averaged per
	// gradient query; meaningful only when Kind is AdaptiveEOT.
	Draws int
}

// maxEOTDraws caps eot(draws=N): a composite classifier counts as one
// query against the attack budget however many inner passes it fans out
// to, so draws multiplies real work the budget cannot see.
const maxEOTDraws = 256

// params lists the mode's knobs: eot has draws, blind and bpda none.
func (m *AdaptiveMode) params() []spec.Param {
	if m.Kind != AdaptiveEOT {
		return nil
	}
	return []spec.Param{
		spec.Int("draws", "stochastic-stage samples averaged per gradient query", &m.Draws, 1, maxEOTDraws),
	}
}

// ParseAdaptive builds an adaptive mode from a spec string:
//
//	"blind"          → attack the bare classifier
//	"bpda"           → attack through the deployed chain via declared VJPs
//	"eot"            → BPDA + gradient averaging over 8 randomness draws
//	"eot(draws=32)"  → BPDA + averaging over 32 draws
//
// ParseAdaptive(m.Name()) round-trips for every accepted spec.
func ParseAdaptive(s string) (AdaptiveMode, error) {
	name, args, err := spec.Split(s)
	if err != nil {
		return AdaptiveMode{}, fmt.Errorf("attacks: adaptive mode: %w", err)
	}
	m := AdaptiveMode{Kind: name}
	switch name {
	case AdaptiveBlind, AdaptiveBPDA:
	case AdaptiveEOT:
		m.Draws = defaultEOTDraws
	default:
		return AdaptiveMode{}, fmt.Errorf("attacks: unknown adaptive mode %q (have %v)", name, AdaptiveModes())
	}
	if err := spec.Assign(m.params(), args); err != nil {
		return AdaptiveMode{}, fmt.Errorf("attacks: adaptive mode %q: %w", s, err)
	}
	return m, nil
}

// AdaptiveModes returns the accepted adaptive-mode kinds in
// weakest-to-strongest order.
func AdaptiveModes() []string {
	return []string{AdaptiveBlind, AdaptiveEOT, AdaptiveBPDA}
}

// Name returns the canonical spec; ParseAdaptive(m.Name()) reconstructs m.
func (m AdaptiveMode) Name() string { return spec.Format(m.Kind, m.params()) }

// Classifier builds the attacker's differentiable view of a system that
// deploys pre in front of inner.
//
//   - blind ignores pre: the attacker sees the bare classifier.
//   - bpda folds the deployed chain in as-is (its declared seeds), so
//     gradients flow through each stage's declared VJP.
//   - eot averages over Draws re-seedings of every stochastic stage,
//     derived from seed via filters.DrawSeed, while deterministic stages
//     are shared across draws.
//
// A nil or identity pre makes every mode equivalent to blind.
func (m AdaptiveMode) Classifier(inner Classifier, pre filters.Filter, seed uint64) Classifier {
	if pre == nil {
		return inner
	}
	switch m.Kind {
	case AdaptiveEOT:
		return NewEOT(FilterDraws(inner, pre, seed), m.Draws)
	case AdaptiveBPDA:
		return FilteredClassifier{Inner: inner, Pre: pre}
	default:
		return inner
	}
}

// FilterDraws builds the EOT draw factory over a deployed chain: draw k
// is the FilteredClassifier whose stochastic stages are re-seeded with
// filters.DrawSeed(seed, k). Deterministic chains yield identical draws,
// so EOT over them degenerates (correctly, if wastefully) to BPDA.
func FilterDraws(inner Classifier, pre filters.Filter, seed uint64) func(draw int) Classifier {
	return func(draw int) Classifier {
		return FilteredClassifier{Inner: inner, Pre: filters.Reseed(pre, filters.DrawSeed(seed, draw))}
	}
}
