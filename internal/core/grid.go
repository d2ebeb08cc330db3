package core

import (
	"context"
	"sync"

	"repro/internal/attacks"
	"repro/internal/parallel"
)

// Grid is the attack × mode × threat model × filter × case sweep behind
// every figure and /v1/evaluate. Axes are lengths the caller decodes,
// except Modes: the runner reads each mode's kind to decide which cells
// share a crafted example. Cells are numbered attack-major — attack,
// mode, TM, filter, case, the last varying fastest.
type Grid struct {
	Attacks int
	Modes   []attacks.AdaptiveMode
	TMs     int
	Filters int
	Cases   int
}

// Cell is one grid point: its index and its position on every axis.
type Cell struct {
	Index                          int
	Attack, Mode, TM, Filter, Case int
}

// Len is the number of cells.
func (g Grid) Len() int { return g.Attacks * len(g.Modes) * g.TMs * g.Filters * g.Cases }

// Cell decodes cell index i.
func (g Grid) Cell(i int) Cell {
	c := Cell{Index: i}
	c.Case, i = i%g.Cases, i/g.Cases
	c.Filter, i = i%g.Filters, i/g.Filters
	c.TM, i = i%g.TMs, i/g.TMs
	c.Mode, c.Attack = i%len(g.Modes), i/len(g.Modes)
	return c
}

// crafter is the index of the cell whose crafted example c measures. A
// blind example depends only on (attack, case) — the delivery model and
// the filter never enter its optimization — so blind cells share the
// example of their TM-0, filter-0 cell, the lowest index of the group;
// bpda and eot fold the cell's chain in and craft their own.
func (g Grid) crafter(c Cell) int {
	if g.Modes[c.Mode].Kind != attacks.AdaptiveBlind {
		return c.Index
	}
	return (c.Attack*len(g.Modes)+c.Mode)*g.TMs*g.Filters*g.Cases + c.Case
}

// RunGrid walks g in two index-addressed stages over a pool of workers:
// craft runs once per distinct example (see crafter), then measure runs
// once per cell with that cell's example. Both receive the worker id, so
// callers keep per-worker state (network clones, attacker slots) in
// slices indexed by it, and write results into index-addressed slots —
// which makes a parallel walk bit-identical to a serial one.
//
// The error returned is the one of the lowest-index failing cell, as a
// serial walk would report it: a cell fails when ctx is done before its
// work starts, when its craft fails (a shared blind craft fails its
// group's lowest cell), or when its measure fails. Work above the lowest
// failure found so far is skipped; work below it always runs, so the
// answer does not depend on scheduling.
func RunGrid[R any](ctx context.Context, g Grid, workers int,
	craft func(worker int, c Cell) (R, error),
	measure func(worker int, c Cell, r R) error) error {
	n := g.Len()
	var jobs []int
	for i := range n {
		if g.crafter(g.Cell(i)) == i {
			jobs = append(jobs, i)
		}
	}
	crafted := make([]R, n)
	var mu sync.Mutex
	lowest, lowestErr := n, error(nil) // the lowest failing cell so far
	// step runs cell i's work unless a cell at or below i has failed —
	// including i's own crafter, which sits at or below i.
	step := func(i int, work func() error) {
		mu.Lock()
		skip := i >= lowest
		mu.Unlock()
		if skip {
			return
		}
		err := ctx.Err()
		if err == nil {
			err = work()
		}
		if err != nil {
			mu.Lock()
			if i < lowest {
				lowest, lowestErr = i, err
			}
			mu.Unlock()
		}
	}
	parallel.ForWorker(workers, len(jobs), func(w, j int) {
		i := jobs[j]
		step(i, func() (err error) {
			crafted[i], err = craft(w, g.Cell(i))
			return err
		})
	})
	parallel.ForWorker(workers, n, func(w, i int) {
		c := g.Cell(i)
		step(i, func() error { return measure(w, c, crafted[g.crafter(c)]) })
	})
	return lowestErr
}
