package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// contract is BENCHMARK.json: the names, directions and bounds every
// later issue is judged by.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []boundedMetric    `json:"end_to_end"`
	PerLayer   []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// failedShareBound is the absolute rise of failed_share that counts as a
// regression (the metric is 0 on a healthy run, so no ratio exists).
const failedShareBound = 0.001

const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of side B with those of side A for one metric:
// how much worse B's median is, as a share of A's median, against the
// bound. The verdict is unresolved when either side's own spread exceeds
// the bound and the two sides' runs overlap: then the medians cannot tell
// a change from noise.
func judge(a, b []float64, higherIsBetter bool, bound float64) string {
	worseBy := 0.0
	if medA, medB := median(a), median(b); medA != 0 {
		worseBy = (medB - medA) / medA
		if higherIsBetter {
			worseBy = -worseBy
		}
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	switch {
	case max(spread(a), spread(b)) > bound && overlap:
		return verdictUnresolved
	case worseBy > bound:
		return verdictWorse
	case worseBy < -bound:
		return verdictBetter
	}
	return verdictWithin
}

// compareMain implements `bench compare A.json… vs B.json…` (or just two
// files). It reports whether any verdict was "worse".
func compareMain(args []string, out io.Writer) (bool, error) {
	var sideA, sideB []string
	split := -1
	for i, a := range args {
		if a == "vs" {
			split = i
		}
	}
	switch {
	case split > 0 && split < len(args)-1:
		sideA, sideB = args[:split], args[split+1:]
	case split < 0 && len(args) == 2:
		sideA, sideB = args[:1], args[1:]
	default:
		return false, errors.New("usage: bench compare A.json [A2.json …] vs B.json [B2.json …]")
	}
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readRecords(sideA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(sideB)
	if err != nil {
		return false, err
	}
	return compareRecords(c, a, b, out), nil
}

func readRecords(paths []string) ([]*record, error) {
	var recs []*record
	for _, p := range paths {
		r, err := readRecord(p)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// values collects one metric of one workload over a side's records.
func values(recs []*record, workload string, pick func(*workloadResult) (float64, bool)) []float64 {
	var vs []float64
	for _, r := range recs {
		if w := r.Workloads[workload]; w != nil {
			if v, ok := pick(w); ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// compareRecords prints one row per (workload, metric) and reports
// whether any row is worse.
func compareRecords(c *contract, a, b []*record, out io.Writer) bool {
	degraded := false
	for _, r := range append(append([]*record(nil), a...), b...) {
		degraded = degraded || r.DegradedHost
	}
	if degraded {
		fmt.Fprintln(out, "degraded_host: a run had fewer than 2 CPUs; every verdict is unresolved")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [Q1, Q3] (n)\tB median [Q1, Q3] (n)\tB/A (base: A median)\tbound\tverdict\t")
	anyWorse := false
	row := func(workload, name, unit string, va, vb []float64, verdict string, bound string) {
		if degraded {
			verdict = verdictUnresolved
		}
		anyWorse = anyWorse || verdict == verdictWorse
		a1, a2, a3 := quartiles(va)
		b1, b2, b3 := quartiles(vb)
		ratio := "n/a"
		if a2 != 0 {
			ratio = fmt.Sprintf("%.3f (%.4g %s)", b2/a2, a2, unit)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\t%s\t\n",
			workload, name, a2, a1, a3, len(va), b2, b1, b3, len(vb), ratio, bound, verdict)
	}
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			pick := func(r *workloadResult) (float64, bool) {
				v, ok := r.Metrics[m.Name]
				return v.Value, ok
			}
			va, vb := values(a, w.Name, pick), values(b, w.Name, pick)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(va, vb, m.Better == "higher", m.Bound)
			row(w.Name, m.Name, m.Unit, va, vb, verdict, fmt.Sprintf("%.0f%%", 100*m.Bound))
		}
		pick := func(r *workloadResult) (float64, bool) { return r.FailedShare, true }
		va, vb := values(a, w.Name, pick), values(b, w.Name, pick)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		verdict := verdictWithin
		if median(vb) > median(va)+failedShareBound {
			verdict = verdictWorse
		}
		row(w.Name, "failed_share", "ratio", va, vb, verdict, fmt.Sprintf("+%g", failedShareBound))
	}
	tw.Flush()
	return anyWorse
}
