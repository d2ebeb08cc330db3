package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// craft_grid runs in a fresh child of the bench binary, so its set-up
// time, CPU time and memory are a process's own, as they are for the
// fademl-serve child of the HTTP workloads. Protocol, one JSON object per
// line on the child's stdout: {"ready":true} once the environment and the
// workers' pipelines are built, then — after the parent writes a line to
// its stdin — the craftReport of the window.

const craftChildArg = "craft-child"

// craftWorkers is the worker count of craft_grid: each owns a network
// clone and claims cells in fixed index order.
const craftWorkers = 2

// craftExactCells is the prefix of the grid (its first replicate) whose
// outcome counts are reported as the exact craft.* counts: every window
// covers it, so the counts do not depend on the window's length.
const craftExactCells = 120

// craftReport is what the child measured.
type craftReport struct {
	// LatMs[i] and Outcomes[i] belong to claim i; claim i executes grid
	// cell i mod 360.
	LatMs     []float64      `json:"lat_ms"`
	Outcomes  []craftOutcome `json:"outcomes"`
	ElapsedS  float64        `json:"elapsed_s"`
	CPUSec    float64        `json:"cpu_s"`
	AllocMB   float64        `json:"alloc_mb"`
	PeakRSSMB float64        `json:"peak_rss_mb"`
	Error     string         `json:"error,omitempty"`
}

func rusageSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// craftChildMain is the child's entry point.
func craftChildMain(args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("usage: %s <cache-dir> <seed> <seconds> <min-cells>", craftChildArg)
	}
	seed, err1 := strconv.ParseUint(args[1], 10, 64)
	seconds, err2 := strconv.ParseFloat(args[2], 64)
	minCells, err3 := strconv.Atoi(args[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("%s: bad arguments %q", craftChildArg, args)
	}
	s, _, err := loadSUT(args[0], io.Discard)
	if err != nil {
		return err
	}
	crafters := make([]*crafter, craftWorkers)
	for i := range crafters {
		if crafters[i], err = s.newCrafter(seed); err != nil {
			return err
		}
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]bool{"ready": true}); err != nil {
		return err
	}
	if _, err := bufio.NewReader(os.Stdin).ReadString('\n'); err != nil {
		return nil // parent only wanted the set-up time
	}
	return out.Encode(runCraft(crafters, time.Duration(seconds*float64(time.Second)), minCells))
}

// runCraft claims cells in index order, wrapping around the grid, until
// the window has passed and at least minCells are done.
func runCraft(crafters []*crafter, window time.Duration, minCells int) craftReport {
	grid := craftGrid()
	type done struct {
		claim int
		ms    float64
		out   craftOutcome
	}
	results := make([][]done, len(crafters))
	var next atomic.Int64
	var failed atomic.Pointer[error]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, start := ms.TotalAlloc, rusageSeconds(), time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w, c := range crafters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for failed.Load() == nil {
				claim := int(next.Add(1)) - 1
				if claim >= minCells && !time.Now().Before(deadline) {
					return
				}
				cell := grid[claim%len(grid)]
				c.source(cell) // render the input outside the cell's latency
				t0 := time.Now()
				out, err := c.execute(cell)
				if err != nil {
					failed.Store(&err)
					return
				}
				results[w] = append(results[w], done{claim, float64(time.Since(t0)) / float64(time.Millisecond), out})
			}
		}()
	}
	wg.Wait()
	rep := craftReport{ElapsedS: time.Since(start).Seconds(), CPUSec: rusageSeconds() - cpu0, PeakRSSMB: peakRSSSelfMB()}
	runtime.ReadMemStats(&ms)
	rep.AllocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	if e := failed.Load(); e != nil {
		rep.Error = (*e).Error()
		return rep
	}
	var all []done
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].claim < all[j].claim })
	for _, d := range all {
		rep.LatMs = append(rep.LatMs, d.ms)
		rep.Outcomes = append(rep.Outcomes, d.out)
	}
	return rep
}

// craftChild is a started child, ready to run.
type craftChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startCraftChild starts a child and waits until it is ready; it returns
// how long that took.
func startCraftChild(cacheDir string, seed uint64, seconds float64, minCells int) (*craftChild, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, craftChildArg, cacheDir, strconv.FormatUint(seed, 10),
		strconv.FormatFloat(seconds, 'g', -1, 64), strconv.Itoa(minCells))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &craftChild{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	var ready struct{ Ready bool }
	if err := c.readLine(&ready); err != nil || !ready.Ready {
		c.stop()
		return nil, 0, fmt.Errorf("craft child not ready: %v", err)
	}
	return c, time.Since(start), nil
}

func (c *craftChild) readLine(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// run releases the child into its window and collects its report; the
// caller still stops the child.
func (c *craftChild) run() (craftReport, error) {
	var rep craftReport
	if _, err := io.WriteString(c.stdin, "go\n"); err != nil {
		return rep, err
	}
	err := c.readLine(&rep)
	if err == nil && rep.Error != "" {
		err = fmt.Errorf("craft child: %s", rep.Error)
	}
	return rep, err
}

// stop ends the child (closing stdin ends one that is still waiting) and
// waits until it has exited.
func (c *craftChild) stop() {
	c.stdin.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// craftCounts sums the exact counts over a run of outcomes.
type craftCounts struct {
	Queries, Hits, Neutralized, Survived, Truncated int
}

func countOutcomes(outs []craftOutcome) craftCounts {
	var c craftCounts
	count := func(n *int, on bool) {
		if on {
			*n++
		}
	}
	for _, o := range outs {
		c.Queries += o.Queries
		count(&c.Hits, o.Hit)
		count(&c.Neutralized, o.Neutralized)
		count(&c.Survived, o.Survived)
		count(&c.Truncated, o.Truncated)
	}
	return c
}
