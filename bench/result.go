package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// record is the result and environment record of one run, written to
// bench/out/result.json (or -out) and read back by compare.
type record struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// DegradedHost marks a run with fewer than the 2 CPUs the set-up
	// assumes; compare refuses to judge such runs.
	DegradedHost bool `json:"degraded_host"`
	// TrainFitS is how long prepare trained for, 0 when the weights were
	// already cached (the train.fit_s of the issue).
	TrainFitS float64                    `json:"train_fit_s"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Ladder    *ladderRecord              `json:"ladder,omitempty"`
}

// ladderRecord is the traced run's share of a record.
type ladderRecord struct {
	Rounds  int               `json:"rounds"` // served-request rounds climbed
	Cells   int               `json:"cells"`  // crafted source images climbed
	Metrics map[string]metric `json:"metrics"`
	// SelfUs is, per rung, median(rung) − Σ median(child rungs) in µs per
	// call (not per image): spans are recorded from outside the program.
	SelfUs map[string]float64 `json:"self_us"`
}

func newRecord(seed uint64) *record {
	r := &record{
		Commit: "unknown", Seed: seed, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: cpuModel(), Workloads: map[string]*workloadResult{},
	}
	r.DegradedHost = r.NProc < 2
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	}
	return r
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func (r *record) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *record) failed() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

// endToEndNames is the order the end-to-end metrics print in.
var endToEndNames = []string{"setup_s", "items_per_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_item"}

// print writes every metric by name with its unit and the sample counts.
func (r *record) print(out io.Writer) {
	fmt.Fprintf(out, "commit %s  seed %d  %s  GOMAXPROCS %d  nproc %d  %s\n", r.Commit, r.Seed, r.GoVersion, r.GoMaxProcs, r.NProc, r.CPUModel)
	if r.DegradedHost {
		fmt.Fprintln(out, "degraded_host: fewer than 2 CPUs; these numbers compare with nothing")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	if len(r.Workloads) > 0 {
		fmt.Fprintln(tw, "\nworkload\tsamples\tfailed_share\t"+strings.Join(endToEndNames, "\t")+"\thighest supported tail\t")
	}
	for _, w := range workloads {
		res := r.Workloads[w.name]
		if res == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t", w.name, res.Samples, res.FailedShare)
		for _, name := range endToEndNames {
			m := res.Metrics[name]
			fmt.Fprintf(tw, "%.4g %s\t", m.Value, m.Unit)
		}
		fmt.Fprintf(tw, "p%g = %.4g ms\t\n", res.TailPercentile, res.TailMs)
	}
	tw.Flush()
	for _, w := range workloads {
		res := r.Workloads[w.name]
		if res == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s [wl]:", w.name)
		other := "craft." // the other path's metrics read 0 here
		if w.route == "" {
			other = "serve."
		}
		for _, name := range sortedKeys(res.Layers) {
			if strings.HasPrefix(name, other) {
				continue
			}
			fmt.Fprintf(out, " %s=%.4g%s", name, res.Layers[name].Value, res.Layers[name].Unit)
		}
		fmt.Fprintln(out)
	}
	if r.Ladder == nil {
		return
	}
	fmt.Fprintf(out, "\nladder (%d served-request rounds, %d crafted source images; one goroutine).\n", r.Ladder.Rounds, r.Ladder.Cells)
	fmt.Fprintln(out, "Spans are recorded from outside the program, so self = median(rung) − Σ median(child rungs), per call.")
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tself (us/call)\t")
	for _, name := range sortedKeys(r.Ladder.Metrics) {
		m := r.Ladder.Metrics[name]
		self := ""
		if v, ok := r.Ladder.SelfUs[name]; ok && v != 0 {
			self = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintf(tw, "%s\t%.5g %s\t%s\t\n", name, m.Value, m.Unit, self)
	}
	tw.Flush()
}
