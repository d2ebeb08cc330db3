package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/parallel"
	"repro/internal/train"
)

// runAtWorkers runs fn with the process-wide pool pinned to n workers,
// restoring the default afterwards.
func runAtWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(0)
	fn()
}

// TestFig7ParallelMatchesSerial is the engine's determinism contract: a
// parallel Fig. 7 run must equal a serial run cell-for-cell — panels,
// curves and derived rates — not just statistically.
func TestFig7ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is not a -short test")
	}
	env := tinyEnv(t)
	opt := SweepOptions{
		Scenarios:      PaperScenarios[:2],
		AttackNames:    []string{"fgsm", "bim"},
		LAPSizes:       []int{4, 8},
		LARRadii:       []int{1},
		IncludeCurves:  true,
		CurveScenarios: PaperScenarios[:1],
	}

	var serial, parallelRes *Fig7Result
	runAtWorkers(t, 1, func() {
		var err error
		serial, err = RunFig7(context.Background(), env, opt)
		if err != nil {
			t.Fatalf("serial RunFig7: %v", err)
		}
	})
	runAtWorkers(t, 4, func() {
		var err error
		parallelRes, err = RunFig7(context.Background(), env, opt)
		if err != nil {
			t.Fatalf("parallel RunFig7: %v", err)
		}
	})

	if len(serial.Panels) != len(parallelRes.Panels) {
		t.Fatalf("panel count: serial %d, parallel %d", len(serial.Panels), len(parallelRes.Panels))
	}
	for i := range serial.Panels {
		if !reflect.DeepEqual(serial.Panels[i], parallelRes.Panels[i]) {
			t.Errorf("panel %d differs:\nserial:   %+v\nparallel: %+v",
				i, serial.Panels[i], parallelRes.Panels[i])
		}
	}
	if !reflect.DeepEqual(serial.Curves, parallelRes.Curves) {
		t.Errorf("curves differ:\nserial:   %+v\nparallel: %+v", serial.Curves, parallelRes.Curves)
	}
	if serial.NeutralizationRate() != parallelRes.NeutralizationRate() {
		t.Errorf("neutralization rate: serial %v, parallel %v",
			serial.NeutralizationRate(), parallelRes.NeutralizationRate())
	}
}

// TestFig9ParallelMatchesSerial covers the filter-aware path, where every
// panel cell runs its own generation on a worker-local network clone.
func TestFig9ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is not a -short test")
	}
	env := tinyEnv(t)
	opt := SweepOptions{
		Scenarios:   PaperScenarios[:1],
		AttackNames: []string{"fgsm"},
		LAPSizes:    []int{4, 8},
		LARRadii:    []int{1, 2},
	}

	var serial, parallelRes *Fig7Result
	runAtWorkers(t, 1, func() {
		var err error
		serial, err = RunFig9(context.Background(), env, opt)
		if err != nil {
			t.Fatalf("serial RunFig9: %v", err)
		}
	})
	runAtWorkers(t, 4, func() {
		var err error
		parallelRes, err = RunFig9(context.Background(), env, opt)
		if err != nil {
			t.Fatalf("parallel RunFig9: %v", err)
		}
	})
	if !reflect.DeepEqual(serial.Panels, parallelRes.Panels) {
		t.Errorf("fig9 panels differ between serial and parallel runs")
	}
	if serial.SurvivalRate() != parallelRes.SurvivalRate() {
		t.Errorf("survival rate: serial %v, parallel %v",
			serial.SurvivalRate(), parallelRes.SurvivalRate())
	}
}

// TestEvaluateParallelMatchesSerial pins train.Evaluate's bit-identity
// across worker counts on the real test split.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	env := tinyEnv(t)
	ds := env.TestSet.Subset(30)
	want := train.Evaluate(train.Clones(env.Net, 1), ds, nil)
	for _, w := range []int{2, 4, 9} {
		got := train.Evaluate(train.Clones(env.Net, w), ds, nil)
		if got != want {
			t.Errorf("Evaluate on %d workers = %+v, serial = %+v", w, got, want)
		}
	}
}

// TestFootprintAblationParallelMatchesSerial covers the ablation grid.
func TestFootprintAblationParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-evaluation grid comparison is not a -short test")
	}
	env := tinyEnv(t)
	var serial, par []FootprintPoint
	runAtWorkers(t, 1, func() { serial = RunFootprintAblation(env, []int{1, 2}) })
	runAtWorkers(t, 4, func() { par = RunFootprintAblation(env, []int{1, 2}) })
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("footprint ablation differs: serial %+v, parallel %+v", serial, par)
	}
}
