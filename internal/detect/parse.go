package detect

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/filters"
	"repro/internal/spec"
)

// Params lists the detector's knobs in canonical spec order: squeezers
// (a parenthesized list of filter specs, each parsed by filters.Parse),
// metric and thr.
func (d *Detector) Params() []spec.Param {
	return []spec.Param{
		spec.List("squeezers", "filter specs whose views are compared to the raw prediction; score = worst discrepancy",
			&d.Squeezers, filters.Filter.Name, parseSqueezer),
		spec.Enum("metric", "l1 (probability-vector distance) or top1 (fraction of squeezers changing the class)",
			&d.Metric, MetricL1, MetricTop1),
		// Scores lie in [0, 2] and flagging is strict, so -1 flags every
		// input and 3 none; the slack also keeps a calibrated threshold
		// that rounding put a hair past 2 re-parseable.
		spec.Float("thr", "flag cutoff: score > thr marks the input adversarial", &d.Threshold, -1, 3),
	}
}

func parseSqueezer(s string) (filters.Filter, error) {
	f, err := filters.Parse(s)
	if err == nil && f == nil {
		err = errors.New("squeezer is a no-op")
	}
	return f, err
}

// Name returns the canonical round-trippable spec of the detector, e.g.
// "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)". The
// metric key is omitted for the default l1 metric; Parse(Name())
// reconstructs an identically configured detector.
func (d *Detector) Name() string {
	ps := d.Params()
	if d.Metric == MetricL1 {
		ps = append(ps[:1], ps[2:]...)
	}
	return spec.Format("detect", ps)
}

// Parse builds a Detector from its spec, in the shared attacks/filters
// grammar: "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)".
// Bare "detect" or "detect()" yields Default(); empty and "none" yield
// (nil, nil) — detection disabled. Errors follow the filters.Parse
// convention so flag and request boundaries can surface them as usage
// errors rather than panics.
func Parse(s string) (*Detector, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "none") {
		return nil, nil
	}
	name, args, err := spec.Split(s)
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	if name != "detect" {
		return nil, fmt.Errorf("detect: spec %q: unknown detector %q (want detect(...))", s, name)
	}
	d := Default()
	if err := spec.Assign(d.Params(), args); err != nil {
		return nil, fmt.Errorf("detect: spec %q: %w", s, err)
	}
	return d, nil
}
