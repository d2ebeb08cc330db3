package filters

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// Param describes one tunable filter knob; see spec.Param.
type Param = spec.Param

// Configurable is the uniform parameterization contract: a filter
// exposes its knobs as Params descriptors bound to its own fields.
// Every registry filter with parameters implements it, which is what
// lets Parse build configured instances from "name(k=v,...)" specs and
// Name() render round-trippable canonical specs.
type Configurable interface {
	Filter
	// Params lists the filter's knobs in canonical spec order.
	Params() []Param
}

// maxRadius caps every window half-width (median, box, lar, bilateral):
// at 16 the window spans 33 pixels — the whole 32-pixel side of the
// largest served input — and the costliest of them, the median's
// per-pixel sort, already takes ~150 ms there. The other knob ceilings
// (next to each Params) are sized the same way: one Apply on a 3×32×32
// image stays in the low hundreds of milliseconds.
const maxRadius = 16

// Parse converts a user-supplied filter spec — the -filter CLI flags, a
// serving-request field — into a Filter. The grammar is internal/spec's,
// shared with attacks and detectors; the filter registry adds none,
// chain and the legacy forms:
//
//	""  |  "none"                      → (nil, nil); pipeline.New treats
//	                                     nil as Identity
//	"median"                           → default-configured registry filter
//	"median(r=2)"                      → registry filter with knobs set
//	"chain(median(r=1),histeq(bins=64))" → left-to-right composition;
//	                                     commas split at paren depth zero
//
// Filter.Name() renders the canonical spec, and Parse(f.Name())
// round-trips for every registry filter and for chains of them.
//
// The legacy KIND:PARAM forms of the first releases (LAP:32, LAR:3,
// MEDIAN:1, GAUSS:2, BOX:2) are still accepted and map onto the
// equivalent canonical configuration.
//
// Unknown filters, unknown params and out-of-range values (median(r=0),
// a negative Gaussian sigma) all surface as usage-style errors here, at
// the flag/request boundary — never as a constructor panic mid-run and
// never silently clamped.
func Parse(s string) (Filter, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "none") {
		return nil, nil
	}
	name, args, err := spec.Split(s)
	if err != nil {
		return nil, fmt.Errorf("filters: %w", err)
	}
	if kind, param, ok := strings.Cut(s, ":"); ok && !strings.Contains(s, "(") {
		return parseLegacy(s, kind, param)
	}
	if name == "chain" {
		return parseChain(s, args)
	}
	f, err := New(name)
	if err != nil {
		return nil, err
	}
	var ps []Param
	if cfg, ok := f.(Configurable); ok {
		ps = cfg.Params()
	}
	if err := spec.Assign(ps, args); err != nil {
		return nil, fmt.Errorf("filters: spec %q: %w", s, err)
	}
	// Cross-parameter constraints (randjpeg's qmin ≤ qmax) can only be
	// checked once every knob is assigned — per-param Set validation
	// cannot see them, so configured filters get a final Validate pass
	// at the same usage-error boundary.
	if v, ok := f.(Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("filters: spec %q: %w", s, err)
		}
	}
	return f, nil
}

// Validator is the optional cross-parameter validation hook: filters
// whose parameters constrain each other (randjpeg's qmin ≤ qmax)
// implement it, and Parse rejects a configured instance whose combined
// knobs are inconsistent — as a usage error at the spec boundary, never
// a panic mid-run.
type Validator interface {
	Validate() error
}

// parseChain builds a Chain from the comma-separated stage list of a
// "chain(...)" spec, parsing each stage recursively (spec.Split bounded
// the nesting depth on the way in).
func parseChain(s, args string) (Filter, error) {
	stages, err := spec.SplitList(args)
	if err != nil {
		return nil, fmt.Errorf("filters: spec %q: %w", s, err)
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("filters: spec %q: chain needs at least one stage", s)
	}
	chain := make(Chain, 0, len(stages))
	for i, stage := range stages {
		f, err := Parse(stage)
		if err != nil {
			return nil, fmt.Errorf("filters: spec %q: stage %d: %w", s, i+1, err)
		}
		if f == nil {
			return nil, fmt.Errorf("filters: spec %q: stage %d is empty (drop it instead of chaining \"none\")", s, i+1)
		}
		chain = append(chain, f)
	}
	return chain, nil
}

// legacy maps the pre-v2 KIND:PARAM kinds onto the canonical spec each
// one abbreviates, up to the integer value.
var legacy = map[string]string{
	"LAP": "lap(np=", "LAR": "lar(r=", "MEDIAN": "median(r=", "GAUSS": "gaussian(sigma=", "BOX": "box(r=",
}

// parseLegacy rewrites KIND:PARAM into its canonical spec and parses that.
func parseLegacy(s, kind, param string) (Filter, error) {
	param = strings.TrimSpace(param)
	if _, err := strconv.Atoi(param); err != nil {
		return nil, fmt.Errorf("filter spec %q: parameter %q is not an integer", s, param)
	}
	head, ok := legacy[strings.ToUpper(strings.TrimSpace(kind))]
	if !ok {
		return nil, fmt.Errorf("filter spec %q: unknown kind %q (LAP|LAR|MEDIAN|GAUSS|BOX|none)", s, kind)
	}
	f, err := Parse(head + param + ")")
	if err != nil {
		return nil, fmt.Errorf("filter spec %q: %w", s, err)
	}
	return f, nil
}

// SplitSpecs splits a comma-separated list of filter specs at top level,
// so "chain(median(r=1),histeq(bins=64)),lap(np=8)" yields two entries.
// This is the flag-level list of the CLIs, not part of the spec grammar:
// whitespace is trimmed and a stray comma's empty element is dropped.
func SplitSpecs(list string) []string { return spec.SplitSpecs(list) }
