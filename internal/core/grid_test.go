package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/attacks"
)

func testGrid() Grid {
	return Grid{
		Attacks: 2,
		Modes:   []attacks.AdaptiveMode{{Kind: attacks.AdaptiveBlind}, {Kind: attacks.AdaptiveBPDA}, {Kind: attacks.AdaptiveEOT, Draws: 2}},
		TMs:     2,
		Filters: 3,
		Cases:   4,
	}
}

// TestGridCellOrder pins the attack-major numbering: case fastest, then
// filter, TM, mode, attack.
func TestGridCellOrder(t *testing.T) {
	g := testGrid()
	if g.Len() != 2*3*2*3*4 {
		t.Fatalf("Len = %d", g.Len())
	}
	i := 0
	for a := range g.Attacks {
		for m := range g.Modes {
			for tm := range g.TMs {
				for f := range g.Filters {
					for c := range g.Cases {
						want := Cell{Index: i, Attack: a, Mode: m, TM: tm, Filter: f, Case: c}
						if got := g.Cell(i); got != want {
							t.Fatalf("Cell(%d) = %+v, want %+v", i, got, want)
						}
						i++
					}
				}
			}
		}
	}
}

// TestRunGridSharesBlindCrafting pins the crafting count: blind crafts
// once per (attack, case), bpda and eot once per cell, and every cell is
// measured exactly once with its own crafter's example — at any worker
// count.
func TestRunGridSharesBlindCrafting(t *testing.T) {
	g := testGrid()
	for _, workers := range []int{1, 4} {
		var crafts atomic.Int64
		seen := make([]string, g.Len())
		err := RunGrid(context.Background(), g, workers,
			func(_ int, c Cell) (string, error) {
				crafts.Add(1)
				if g.Modes[c.Mode].Kind == attacks.AdaptiveBlind {
					return fmt.Sprintf("blind a%d c%d", c.Attack, c.Case), nil
				}
				return fmt.Sprintf("cell %d", c.Index), nil
			},
			func(_ int, c Cell, r string) error {
				seen[c.Index] = r
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		perCell := g.Attacks * 2 * g.TMs * g.Filters * g.Cases // bpda + eot
		if want := int64(g.Attacks*g.Cases + perCell); crafts.Load() != want {
			t.Errorf("workers=%d: %d crafts, want %d", workers, crafts.Load(), want)
		}
		for i, r := range seen {
			c := g.Cell(i)
			want := fmt.Sprintf("cell %d", i)
			if g.Modes[c.Mode].Kind == attacks.AdaptiveBlind {
				want = fmt.Sprintf("blind a%d c%d", c.Attack, c.Case)
			}
			if r != want {
				t.Errorf("workers=%d: cell %d measured %q, want %q", workers, i, r, want)
			}
		}
	}
}

// TestRunGridLowestError pins the error contract: whatever the schedule,
// RunGrid reports the lowest-index failing cell — a blind crafting
// failure counts as its group's lowest cell — and a cancelled context
// fails the walk with ctx's error.
func TestRunGridLowestError(t *testing.T) {
	g := testGrid()
	failCraft, failMeasure := 73, 30 // 73: attack 1, blind, TM 0, filter 0, case 1
	if g.crafter(g.Cell(failCraft)) != failCraft || g.Modes[g.Cell(failCraft).Mode].Kind != attacks.AdaptiveBlind {
		t.Fatal("fixture: cell 73 is not a blind crafter")
	}
	run := func(workers, measureFail int) error {
		return RunGrid(context.Background(), g, workers,
			func(_ int, c Cell) (int, error) {
				if c.Index == failCraft {
					return 0, fmt.Errorf("craft %d", c.Index)
				}
				return c.Index, nil
			},
			func(_ int, c Cell, _ int) error {
				if c.Index == measureFail {
					return fmt.Errorf("measure %d", c.Index)
				}
				return nil
			})
	}
	for _, workers := range []int{1, 3} {
		if err := run(workers, failMeasure); err == nil || err.Error() != "measure 30" {
			t.Errorf("workers=%d: err = %v, want measure 30", workers, err)
		}
		if err := run(workers, 120); err == nil || err.Error() != "craft 73" {
			t.Errorf("workers=%d: err = %v, want craft 73", workers, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunGrid(ctx, g, 2, func(int, Cell) (int, error) { return 0, nil }, func(int, Cell, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled walk: err = %v", err)
	}
}

// TestRunGridParallelMatchesSerial pins index addressing: results written
// by cell index agree at every worker count.
func TestRunGridParallelMatchesSerial(t *testing.T) {
	g := testGrid()
	walk := func(workers int) []int {
		out := make([]int, g.Len())
		err := RunGrid(context.Background(), g, workers,
			func(_ int, c Cell) (int, error) { return c.Attack*1000 + c.Case, nil },
			func(_ int, c Cell, r int) error { out[c.Index] = r*10 + c.Filter; return nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := walk(1)
	for _, w := range []int{2, 5} {
		if got := walk(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d walk differs from serial", w)
		}
	}
}
