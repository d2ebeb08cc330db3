package attacks

import (
	"fmt"

	"repro/internal/spec"
)

// Param describes one tunable attack knob; see spec.Param.
type Param = spec.Param

// Configurable is the uniform parameterization contract: an attack
// exposes its knobs as Params descriptors bound to its own fields.
// Every registry attack implements it, which is what lets Parse build
// configured instances from "name(k=v,...)" specs and Name() render
// round-trippable canonical specs.
type Configurable interface {
	Attack
	// Params lists the attack's knobs in canonical spec order.
	Params() []Param
}

// maxSteps caps every iteration-count knob. Served attacks are cut off
// by the query budget long before it; the ceiling keeps the spec-built
// loop bounds and per-iteration traces finite everywhere else.
const maxSteps = 1000000

// Parse builds a configured attack from a spec string:
//
//	"pgd"                      → default-configured PGD
//	"pgd(eps=0.03,steps=40)"   → PGD with two knobs overridden
//
// The name resolves case-insensitively against the registry; the
// parenthesized list assigns knobs by the keys each attack's Params()
// exposes. Parse(a.Name()) round-trips for every registry attack: the
// canonical Name() spec reconstructs an identically configured instance.
func Parse(s string) (Attack, error) {
	name, args, err := spec.Split(s)
	if err != nil {
		return nil, fmt.Errorf("attacks: %w", err)
	}
	atk, err := New(name)
	if err != nil {
		return nil, err
	}
	var ps []Param
	if cfg, ok := atk.(Configurable); ok {
		ps = cfg.Params()
	}
	if err := spec.Assign(ps, args); err != nil {
		return nil, fmt.Errorf("attacks: spec %q: %w", s, err)
	}
	return atk, nil
}

// SplitSpecs splits a comma-separated list of attack specs at top level,
// so "pgd(eps=0.03,steps=40),fgsm" yields two entries. This is the
// flag-level list of the CLIs, not part of the spec grammar: whitespace
// is trimmed and a stray comma's empty element is dropped.
func SplitSpecs(list string) []string { return spec.SplitSpecs(list) }
