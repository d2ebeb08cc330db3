// Command fademl-bench regenerates the paper's evaluation figures as text
// tables: Fig. 5 (attacks under TM-I), Fig. 6 (top-5 accuracy under
// attack), Fig. 7 (classical attacks neutralized by LAP/LAR) and Fig. 9
// (FAdeML attacks surviving the same filters). ATTACKS.md "Figure budgets"
// lists the attack specs each figure runs.
//
// Usage:
//
//	fademl-bench [-profile default] [-fig all|5|6|7|9|abl] [-curves]
//	             [-filters 'chain(median(r=1),lap(np=8)),lar(r=2)']
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	fademl "repro"
	"repro/internal/experiments"
	"repro/internal/filters"
	"repro/internal/parallel"
)

func main() {
	profileName := flag.String("profile", "default", "experiment profile: tiny, default or paper")
	cacheDir := flag.String("cache", "testdata/cache", "weight cache directory")
	fig := flag.String("fig", "all", "which figure to regenerate: all, 5, 6, 7 or 9")
	curves := flag.Bool("curves", true, "include the accuracy-vs-filter curves in Figs. 7/9")
	filterList := flag.String("filters", "", "comma-separated filter specs replacing the LAP/LAR grid in Figs. 7/9, e.g. 'median(r=2),chain(lap(np=8),bitdepth(bits=5))'")
	workers := flag.Int("workers", runtime.NumCPU(), "experiment worker pool size (1 = serial; results are identical either way)")
	flag.Parse()
	parallel.SetWorkers(*workers)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p, err := fademl.ParseProfile(*profileName)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	env, err := fademl.NewEnv(p, *cacheDir, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("environment ready in %.0fs — clean top-1 %.1f%%, top-5 %.1f%%\n\n",
		time.Since(start).Seconds(), 100*env.CleanTop1, 100*env.CleanTop5)

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("5") {
		cost := meter()
		res, err := fademl.RunFig5(ctx, env, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Table())
		fmt.Printf("payload success rate: %.0f%%  (%s)\n\n", 100*res.SuccessRate(), cost())
	}
	if want("6") {
		cost := meter()
		res, err := fademl.RunFig6(ctx, env, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Table())
		fmt.Printf("max top-5 drop under attack: %.1f points  (%s)\n\n", 100*res.MaxDrop(), cost())
	}
	if want("7") {
		cost := meter()
		res, err := fademl.RunFig7(ctx, env, fademl.SweepOptions{
			FilterSpecs:    fademl.SplitFilterSpecs(*filterList),
			IncludeCurves:  *curves,
			CurveScenarios: []fademl.Scenario{fademl.PaperScenarios[0]},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Table())
		fmt.Printf("neutralization rate: %.2f%%, survival rate: %.2f%%  (%s)\n\n",
			100*res.NeutralizationRate(), 100*res.SurvivalRate(), cost())
	}
	if want("9") {
		cost := meter()
		res, err := fademl.RunFig9(ctx, env, fademl.SweepOptions{
			FilterSpecs:    fademl.SplitFilterSpecs(*filterList),
			IncludeCurves:  *curves,
			CurveScenarios: []fademl.Scenario{fademl.PaperScenarios[0]},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Table())
		fmt.Printf("survival rate: %.2f%%  (%s)\n\n", 100*res.SurvivalRate(), cost())
	}
	if want("abl") {
		cost := meter()
		if err := runAblations(ctx, env); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ablations done  (%s)\n\n", cost())
	}
	fmt.Printf("total wall time: %.0fs\n", time.Since(start).Seconds())
}

// meter starts timing one figure run; the returned func formats its wall
// seconds and bytes allocated — the research path's cost, which bench/
// records only for its own 360-cell grid, not per figure.
func meter() func() string {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start, alloc := time.Now(), ms.TotalAlloc
	return func() string {
		runtime.ReadMemStats(&ms)
		return fmt.Sprintf("%.1fs, %.2f GB allocated", time.Since(start).Seconds(), float64(ms.TotalAlloc-alloc)/1e9)
	}
}

// runAblations prints the design-choice sweeps: filter strength, FAdeML η,
// BIM ε budget and the LAR footprint.
func runAblations(ctx context.Context, env *fademl.Env) error {
	fmt.Println("Ablation — clean accuracy vs filter strength (inverted-U):")
	for _, p := range experiments.RunFilterStrengthAblation(env) {
		fmt.Printf("  %-12s taps=%-3d top1=%5.1f%% top5=%5.1f%%\n",
			p.FilterName, p.Taps, 100*p.Top1, 100*p.Top5)
	}
	fmt.Println("\nAblation — FAdeML η noise scaling through LAP(8):")
	etaPts, err := experiments.RunEtaAblation(ctx, env, filters.NewLAP(8), nil)
	if err != nil {
		return err
	}
	for _, p := range etaPts {
		fmt.Printf("  η=%.2f survived=%-5v conf=%.2f |noise|inf=%.3f\n",
			p.Eta, p.Survived, p.Confidence, p.NoiseLInf)
	}
	fmt.Println("\nAblation — BIM ε budget vs scenario-1 payload:")
	budPts, err := experiments.RunBudgetAblation(ctx, env, nil)
	if err != nil {
		return err
	}
	for _, p := range budPts {
		fmt.Printf("  ε=%.2f success=%-5v conf=%.2f\n", p.Epsilon, p.Success, p.Confidence)
	}
	fmt.Println("\nAblation — LAR disk vs square box footprint (clean top-5):")
	for _, p := range experiments.RunFootprintAblation(env, nil) {
		fmt.Printf("  r=%d disk=%5.1f%% box=%5.1f%%\n", p.Radius, 100*p.DiskTop5, 100*p.BoxTop5)
	}
	return nil
}
