// Command fademl-attack crafts one adversarial example for a paper
// scenario, optionally filter-aware (FAdeML), measures it against the
// deployed pipeline under Threat Models I and II/III, and writes PNGs of
// the clean image, adversarial image, amplified noise and the DNN's
// filtered view.
//
// The -attack flag takes an attack spec string — a bare library name or a
// parameterized form like 'pgd(eps=0.03,steps=40)' (quote it for the
// shell). -max-queries/-max-iters/-timeout cap the attack's work; a
// budget-cut (or Ctrl-C-interrupted) run still reports its best-so-far
// adversarial example, marked TRUNCATED.
//
// Usage:
//
//	fademl-attack [-profile default] [-scenario 1..5]
//	              [-attack 'bim(eps=0.1,steps=40)'] [-aware] [-tm 2|3]
//	              [-adaptive blind|bpda|'eot(draws=8)']
//	              [-filter 'lap(np=32)'|'chain(...)'|none] [-max-queries N] [-max-iters N]
//	              [-timeout 30s] [-progress] [-out DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	fademl "repro"
	"repro/internal/imageio"
)

func main() {
	profileName := flag.String("profile", "default", "experiment profile: tiny, default or paper")
	cacheDir := flag.String("cache", "testdata/cache", "weight cache directory")
	scenarioID := flag.Int("scenario", 1, "paper scenario 1..5")
	attackSpec := flag.String("attack", "bim", "attack spec, e.g. bim or 'pgd(eps=0.03,steps=40)' (see -list)")
	filterSpec := flag.String("filter", "lap(np=32)", "deployed pre-processing filter spec, e.g. 'lap(np=32)', 'chain(median(r=1),lar(r=2))', none")
	aware := flag.Bool("aware", true, "run the attack filter-aware (FAdeML)")
	adaptive := flag.String("adaptive", "", "crafting mode overriding -aware: blind, bpda, or 'eot(draws=N)' (for randomized filters)")
	tmFlag := flag.String("tm", "3", "threat model for filtered delivery: 2 or 3 (also accepts tm2, TM-III, ...)")
	maxQueries := flag.Int("max-queries", 0, "attack budget: classifier evaluations (0 = unlimited)")
	maxIters := flag.Int("max-iters", 0, "attack budget: optimizer iterations (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "attack budget: wall-clock cap (0 = unlimited)")
	progress := flag.Bool("progress", false, "log per-iteration attack progress")
	outDir := flag.String("out", "attack-out", "output directory for PNGs (empty to skip)")
	list := flag.Bool("list", false, "list available attacks and filters with their spec parameters and exit")
	flag.Parse()

	if *list {
		listAttacks()
		return
	}
	if *scenarioID < 1 || *scenarioID > len(fademl.PaperScenarios) {
		log.Fatalf("scenario %d outside 1..%d", *scenarioID, len(fademl.PaperScenarios))
	}
	sc := fademl.PaperScenarios[*scenarioID-1]

	// Flag validation happens before any model loads: a bad -tm, -filter
	// or -attack spec is a usage error, not a panic from inside the
	// pipeline.
	tm, err := fademl.ParseThreatModel(*tmFlag)
	if err != nil {
		usageError(err)
	}
	if tm == fademl.TM1 {
		usageError(fmt.Errorf("threat model %v has no filtered delivery; use 2 or 3", tm))
	}
	filter, err := fademl.ParseFilter(*filterSpec)
	if err != nil {
		usageError(err)
	}
	if *aware && *attackSpec == "bim" {
		// The default filter-aware attacker compensates for smoothing
		// attenuation with a larger budget than the library default.
		*attackSpec = "bim(eps=0.25,alpha=0.02,steps=60)"
	}
	atk, err := fademl.ParseAttack(*attackSpec)
	if err != nil {
		usageError(err)
	}
	var mode fademl.AdaptiveMode
	if *adaptive != "" {
		if mode, err = fademl.ParseAdaptive(*adaptive); err != nil {
			usageError(err)
		}
	}
	p, err := fademl.ParseProfile(*profileName)
	if err != nil {
		usageError(err)
	}
	env, err := fademl.NewEnv(p, *cacheDir, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	var acq *fademl.Acquisition
	if tm == fademl.TM2 {
		acq = fademl.NewAcquisition(1.0, 1.0/255, true, 97)
	}
	pipe := fademl.NewPipeline(env.Net, filter, acq)

	// Ctrl-C truncates the attack at the next iteration boundary; the
	// best-so-far example is still measured and written out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	budget := fademl.Budget{MaxQueries: *maxQueries, MaxIters: *maxIters}
	if *timeout > 0 {
		budget.Deadline = time.Now().Add(*timeout)
	}
	run := fademl.Run{
		Pipeline: pipe, Attack: atk, FilterAware: *aware, Adaptive: mode, Seed: 1,
		TM: tm, Budget: budget,
	}
	if *progress {
		run.Observer = func(pr fademl.Progress) {
			log.Printf("%s: iteration %d, %d queries", pr.Attack, pr.Iterations, pr.Queries)
		}
	}

	clean := sc.CleanImage(env.Profile.Size)
	start := time.Now()
	out, err := fademl.Execute(ctx, run, clean, sc.Source, sc.Target)
	if err != nil {
		log.Fatal(err)
	}
	res := out.AttackerResult
	fmt.Printf("\n%s\n", sc)
	fmt.Printf("attack %s: %d iterations, %d queries in %.1fs\n",
		atk.Name(), res.Iterations, res.Queries, time.Since(start).Seconds())
	if res.Truncated {
		fmt.Println("run TRUNCATED (budget exhausted or interrupted) — reporting best-so-far example")
	}
	fmt.Println(out.Comparison.String())

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		noiseViz := res.Noise.Clone()
		noiseViz.ScaleInPlace(8)
		noiseViz.AddScalar(0.5)
		noiseViz.Clamp01()
		for name, img := range map[string]*fademl.Tensor{
			"clean.png":    clean,
			"adv.png":      res.Adversarial,
			"noise8x.png":  noiseViz,
			"filtered.png": pipe.Deliver(res.Adversarial, tm),
		} {
			path := filepath.Join(*outDir, name)
			if err := imageio.SavePNG(img, path); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}

// listAttacks prints every registry attack, filter and the detector with
// their spec parameters, straight from the Params() descriptors.
func listAttacks() {
	printParams := func(ps []fademl.Param) {
		for _, p := range ps {
			fmt.Printf("      %-10s %s (%s, default %s)\n", p.Name, p.Doc, p.Range(), p.Get())
		}
	}
	fmt.Println("attacks (configure via 'name(key=value,...)'):")
	for _, name := range fademl.AttackNames() {
		atk, err := fademl.NewAttack(name)
		if err != nil {
			continue
		}
		fmt.Printf("  %s\n", atk.Name())
		if cfg, ok := atk.(fademl.ConfigurableAttack); ok {
			printParams(cfg.Params())
		}
	}
	fmt.Println("\nfilters (configure via 'name(key=value,...)'; compose via 'chain(a,b)'):")
	for _, name := range fademl.FilterNames() {
		f, err := fademl.NewNamedFilter(name)
		if err != nil {
			continue
		}
		fmt.Printf("  %s\n", f.Name())
		if cfg, ok := f.(fademl.ConfigurableFilter); ok {
			printParams(cfg.Params())
		}
	}
	fmt.Println("\ndetector specs (fademl-serve -detect, /v1/detect, /v1/evaluate \"detector\"):")
	det := fademl.DefaultDetector()
	fmt.Printf("  %s   (bare 'detect' = this default)\n", det.Name())
	printParams(det.Params())
	fmt.Println("\nexamples: -attack 'pgd(eps=0.03,steps=40)' -filter 'chain(median(r=1),lap(np=32))'")
	fmt.Println("          fademl-serve -detect 'detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)'")
}

func usageError(err error) {
	fmt.Fprintf(os.Stderr, "fademl-attack: %v\n", err)
	flag.Usage()
	os.Exit(2)
}
