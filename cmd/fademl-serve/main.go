// Command fademl-serve runs the deployed inference pipeline of the
// paper's Fig. 2 — acquisition, pre-processing noise filter, DNN — as a
// concurrent HTTP service with dynamic micro-batching: single-image
// requests from concurrent clients coalesce into batched forwards on a
// pool of weight-sharing network clones, and every response is
// bit-identical to a direct single-image inference.
//
// Usage:
//
//	fademl-serve [-addr :8080] [-profile tiny] [-filter 'lap(np=32)'] [-tm 2]
//	             [-registry DIR] [-model name@version]
//	             [-detect 'detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)']
//	             [-detect-fpr 0.05] [-correct 'chain(median(r=2),bitdepth(bits=4))']
//	             [-precision float64] [-workers N] [-max-batch 16] [-max-wait 2ms]
//	             [-attack-workers 1] [-attack-max-queries 5000] [-attack-timeout 30s]
//	             [-predict-deadline 500ms] [-defend-deadline 2s] [-evaluate-timeout 2m]
//	             [-interactive-limit 0] [-bulk-limit 0] [-result-cache 4096]
//	             [-write-timeout 5m] [-drain-timeout 0] [-drain-grace 2s]
//
//	fademl-serve -front http://h1:8080,http://h2:8080,http://h3:8080
//	             [-addr :8080] [-probe-interval 1s] [-eject-after 3]
//	             [-front-retries 2] [-hedge 0]
//
// Endpoints:
//
//	POST /v1/predict        {"pixels": […], "shape": [3,S,S], "tm": "2", "precision": "float32", "probs": true}
//	POST /v1/predict_batch  {"images": [{"pixels": …, "shape": …}, …]}
//	POST /v1/defend         {"pixels": […], "shape": [3,S,S], "filter": "chain(median(r=1),histeq(bins=64))", "predict": true}
//	POST /v1/detect         {"pixels": […], "shape": [3,S,S], "detector": "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)"}
//	POST /v1/attack         {"attack": "pgd(eps=0.03,steps=40)", "source": 14, "target": 1, "tm": "3", "aware": true}
//	POST /v1/evaluate       {"attacks": ["fgsm", "bim(eps=0.1)"], "tms": ["3"], "filters": ["none", "lap(np=32)"], "detector": "detect", "cases": [...]}
//	GET  /v1/models         model table (active version, loaded versions, registry catalog)
//	POST /v1/models         {"action": "activate", "model": "name@version"} — hot-swap under live traffic
//	GET  /v1/healthz        liveness (503 draining, "degraded" while shedding) + model identity
//	GET  /v1/stats          requests, batches, lanes, cache, latency
//	GET  /metrics           Prometheus text exposition
//
// Survivability: requests pass bounded admission lanes — interactive
// (predict/defend) and bulk (attack/evaluate) — and load beyond a lane's
// limit is shed immediately with 429 + Retry-After instead of queuing.
// Per-route deadlines (-predict-deadline, -defend-deadline,
// -evaluate-timeout) bound how long any request holds resources; hits in
// the content-addressed result cache (-result-cache entries; -1
// disables) are answered bit-identically with no worker time. The
// process drains gracefully on SIGINT/SIGTERM: healthz flips to 503 so
// front doors stop routing here, new requests are refused, in-flight
// requests complete, then the batching service shuts down.
//
// Detection: -detect enables the detect-then-correct serving mode with a
// feature-squeezing discrepancy detector spec (bare "detect" selects the
// default bitdepth(bits=4)+median(r=1) ensemble; see FILTERS.md for the
// squeezer cookbook). Every external prediction is scored against the
// ensemble: clean-pass traffic is answered bit-identically to a
// non-detecting server, flagged inputs are re-routed through the heavier
// correction chain (-correct, default: the chain of the detector's own
// squeezers) and marked in the response's "detection" object. At startup
// the threshold is calibrated so the clean false-positive rate over the
// canonical class set hits -detect-fpr (negative keeps the spec's raw
// threshold). /v1/detect scores on demand — with or without -detect —
// and /v1/evaluate grows a detection axis (rate at the calibrated
// threshold, clean FPR, ROC AUC per attack series).
//
// Model registry: with -registry the server serves versioned models from
// the registry store instead of an anonymous profile-trained network.
// -model selects the version ("name@version", or a bare name for its
// latest); when the name has no versions yet, the legacy -profile path
// becomes a bootstrap — the profile's model is trained (or loaded from
// the weight cache) and registered as v1 before serving. Sibling
// versions can then be loaded and hot-swapped under live traffic via
// POST /v1/models without shedding or failing a single request.
//
// -front mode turns the binary into the multi-replica front door
// instead: a consistent-hash router over the listed backends with
// health-probe-driven ejection/readmission, bounded jittered retries on
// transport failures only (never on a received response), and optional
// hedging (-hedge > 0).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	fademl "repro"
	"repro/internal/gtsrb"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	profileName := flag.String("profile", "tiny", "experiment profile: tiny, default or paper")
	cacheDir := flag.String("cache", "testdata/cache", "weight cache directory")
	registryDir := flag.String("registry", "", "model registry root; serve versioned models from this store (empty = legacy profile mode)")
	modelSpec := flag.String("model", "", "registry model to serve: 'name@version' or a bare name for its latest (default: vgg-<profile>)")
	filterSpec := flag.String("filter", "lap(np=32)", "deployed pre-processing filter spec, e.g. 'lap(np=32)', 'chain(median(r=1),lar(r=2))', none")
	tmSpec := flag.String("tm", "2", "default threat model for requests that name none: 1, 2 or 3")
	detectSpec := flag.String("detect", "", "detect-then-correct mode: discrepancy detector spec, e.g. 'detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)' or bare 'detect' (empty disables)")
	detectFPR := flag.Float64("detect-fpr", 0.05, "calibrate the detector threshold to this clean false-positive rate over the canonical class set at startup (negative keeps the spec's threshold)")
	correctSpec := flag.String("correct", "", "correction filter spec for flagged inputs (default: the chain of the detector's squeezers)")
	precSpec := flag.String("precision", "float64", "default inference precision lane for requests that name none: float64 (reference) or float32 (fast)")
	acqSeed := flag.Uint64("acq-seed", 97, "acquisition sensor-noise seed (TM-II capture stage)")
	workers := flag.Int("workers", runtime.NumCPU(), "inference worker pool size (one network clone each)")
	maxBatch := flag.Int("max-batch", 16, "micro-batch flush-on-full threshold (1 = no batching)")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "micro-batch flush-on-linger bound")
	attackWorkers := flag.Int("attack-workers", 1, "concurrent server-side attack crafting slots (-1 disables /v1/attack and /v1/evaluate)")
	attackMaxQueries := flag.Int("attack-max-queries", 5000, "hard per-request attack budget in classifier evaluations")
	attackTimeout := flag.Duration("attack-timeout", 30*time.Second, "hard per-request attack wall-clock cap")
	predictDeadline := flag.Duration("predict-deadline", 500*time.Millisecond, "server-side /v1/predict deadline (0 disables)")
	defendDeadline := flag.Duration("defend-deadline", 2*time.Second, "server-side /v1/defend deadline (0 disables)")
	evaluateTimeout := flag.Duration("evaluate-timeout", 2*time.Minute, "server-side /v1/evaluate wall-clock cap (0 disables)")
	interactiveLimit := flag.Int("interactive-limit", 0, "interactive lane admission bound (0 auto: 4×workers×max-batch; -1 unbounded)")
	bulkLimit := flag.Int("bulk-limit", 0, "bulk lane admission bound (0 auto: 4×attack-workers; -1 unbounded)")
	resultCache := flag.Int("result-cache", 0, "content-addressed result cache entries (0 auto: 4096; -1 disables)")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "HTTP response write bound (must exceed the slowest route)")
	drainTimeout := flag.Duration("drain-timeout", 0, "max wait for in-flight requests on shutdown (0 auto: evaluate-timeout + 5s, at least 30s)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "window between failing healthz and closing the listener, so front doors observe the 503 and stop routing")
	frontOf := flag.String("front", "", "run as multi-replica front door over these comma-separated backend URLs instead of serving a model")
	probeInterval := flag.Duration("probe-interval", time.Second, "front: health-check cadence")
	ejectAfter := flag.Int("eject-after", 3, "front: consecutive probe failures that eject a replica")
	frontRetries := flag.Int("front-retries", 2, "front: max retries on other replicas after a transport failure")
	hedge := flag.Duration("hedge", 0, "front: duplicate a slow safe request to the next replica after this delay (0 disables)")
	flag.Parse()

	httpTimeouts := fademl.HTTPTimeouts{Write: *writeTimeout}

	if *frontOf != "" {
		runFront(*addr, strings.Split(*frontOf, ","), httpTimeouts, fademl.FrontOptions{
			ProbeInterval: *probeInterval,
			EjectAfter:    *ejectAfter,
			MaxRetries:    *frontRetries,
			Hedge:         *hedge,
		})
		return
	}

	// Validate user input at the flag boundary: a bad spec is a usage
	// error with a message, never a panic from deep inside the pipeline.
	filter, err := fademl.ParseFilter(*filterSpec)
	if err != nil {
		usageError(err)
	}
	tm, err := fademl.ParseThreatModel(*tmSpec)
	if err != nil {
		usageError(err)
	}
	prec, err := fademl.ParsePrecision(*precSpec)
	if err != nil {
		usageError(err)
	}
	if *maxBatch < 1 || *workers < 1 {
		usageError(fmt.Errorf("-max-batch and -workers must be at least 1 (got %d, %d)", *maxBatch, *workers))
	}
	detector, err := fademl.ParseDetector(*detectSpec)
	if err != nil {
		usageError(err)
	}
	correction, err := fademl.ParseFilter(*correctSpec)
	if err != nil {
		usageError(err)
	}
	if correction != nil && detector == nil {
		usageError(fmt.Errorf("-correct %q needs -detect (the correction chain only runs on flagged inputs)", *correctSpec))
	}
	if math.IsNaN(*detectFPR) || *detectFPR >= 1 {
		usageError(fmt.Errorf("-detect-fpr %v out of range [0, 1) (negative keeps the spec's threshold)", *detectFPR))
	}
	profile, err := fademl.ParseProfile(*profileName)
	if err != nil {
		usageError(err)
	}

	// The acquisition stage models the camera every benign input passes
	// under TM-II; requests for TM-1/TM-3 views simply bypass it.
	acq := fademl.NewAcquisition(1.0, 1.0/255, true, *acqSeed)

	evalCases := make([]fademl.EvalCase, len(fademl.PaperScenarios))
	for i, sc := range fademl.PaperScenarios {
		evalCases[i] = fademl.EvalCase{Source: sc.Source, Target: sc.Target}
	}
	opts := fademl.ServeOptions{
		Workers:          *workers,
		MaxBatch:         *maxBatch,
		MaxWait:          *maxWait,
		DefaultTM:        tm,
		Precision:        prec,
		ClassName:        gtsrb.ClassName,
		AttackWorkers:    *attackWorkers,
		AttackBudget:     fademl.Budget{MaxQueries: *attackMaxQueries},
		AttackTimeout:    *attackTimeout,
		Render:           gtsrb.Canonical,
		EvalCases:        evalCases,
		PredictDeadline:  *predictDeadline,
		DefendDeadline:   *defendDeadline,
		EvaluateTimeout:  *evaluateTimeout,
		InteractiveLimit: *interactiveLimit,
		BulkLimit:        *bulkLimit,
		CacheSize:        *resultCache,
		Detector:         detector,
		Correction:       correction,
	}

	var srv *fademl.Server
	var modelLabel string
	if *registryDir != "" {
		reg, err := fademl.OpenRegistry(*registryDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Registry = reg
		spec := *modelSpec
		if spec == "" {
			spec = "vgg-" + profile.Name
		}
		ref, rerr := reg.Resolve(spec)
		if rerr != nil {
			// Bootstrap: a bare name with no versions yet is seeded from
			// the legacy profile path — train (or load the weight cache)
			// and register the result as the name's first version. A
			// pinned version that is absent stays a hard error.
			pref, perr := fademl.ParseModelRef(spec)
			if perr != nil {
				usageError(perr)
			}
			if pref.Version != "" {
				log.Fatal(rerr)
			}
			log.Printf("fademl-serve: model %q has no versions in %s; bootstrapping from profile %s",
				pref.Name, *registryDir, profile.Name)
			env, err := fademl.NewEnv(profile, *cacheDir, os.Stdout)
			if err != nil {
				log.Fatal(err)
			}
			note := fmt.Sprintf("fademl-serve bootstrap, profile %s, clean top-1 %.2f%%", profile.Name, 100*env.CleanTop1)
			m, err := reg.Save(pref.Name, env.Net, profile.VGGArch(), fademl.RegistrySaveOptions{Note: note})
			if err != nil {
				log.Fatal(err)
			}
			ref = m.Ref()
		}
		model, err := reg.Load(ref)
		if err != nil {
			log.Fatal(err)
		}
		srv = fademl.NewServerFromModel(model, filter, acq, opts)
		modelLabel = "model " + ref.String()
	} else {
		env, err := fademl.NewEnv(profile, *cacheDir, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		srv = fademl.NewServer(fademl.NewPipeline(env.Net, filter, acq), opts)
		modelLabel = "profile " + env.Profile.Name
	}
	// A float32 default lane that cannot be built (a topology ToFloat32
	// does not support) is a startup error, not a per-request 400.
	if prec == fademl.PrecisionFloat32 && !srv.Float32Available() {
		srv.Close()
		usageError(fmt.Errorf("-precision float32: %s", "float32 lane unavailable for this model"))
	}
	// Calibrate the detector before the listener opens: the threshold and
	// the cache-key spec must be settled before any external traffic.
	if detector != nil && *detectFPR >= 0 {
		size := srv.InputShape()[1]
		clean := make([]*fademl.Tensor, fademl.NumClasses)
		for c := range clean {
			clean[c] = gtsrb.Canonical(c, size)
		}
		thr, err := srv.CalibrateDetector(context.Background(), clean, *detectFPR)
		if err != nil {
			srv.Close()
			log.Fatal(err)
		}
		log.Printf("fademl-serve: detector %s calibrated to clean FPR %.3f over %d canonical signs (threshold %.4f)",
			srv.DetectorSpec(), *detectFPR, len(clean), thr)
	}

	httpSrv := fademl.NewHTTPServer(*addr, srv.Handler(), httpTimeouts)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	filterName := "none"
	if filter != nil {
		filterName = filter.Name()
	}
	detectorName := "off"
	if detector != nil {
		detectorName = srv.DetectorSpec()
	}
	log.Printf("fademl-serve: %s, filter %s, detector %s, default %v/%v, %d workers, batch ≤%d, linger ≤%v on %s",
		modelLabel, filterName, detectorName, tm, prec, *workers, *maxBatch, *maxWait, *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Print("fademl-serve: signal received, draining...")
		// Drain order matters: flip healthz to 503 and refuse new work
		// first (front doors and load balancers stop routing here), then
		// drain the listener (in-flight HTTP requests complete), then
		// stop the batching service. The drain window must cover the
		// slowest admitted route — an in-flight evaluate sweep — or
		// shutdown cuts its connection mid-response.
		srv.BeginDrain()
		// Keep the listener open for a grace window: Shutdown kills idle
		// keep-alive connections and refuses new ones immediately, so
		// without it no probe would ever observe the 503.
		time.Sleep(*drainGrace)
		wait := *drainTimeout
		if wait <= 0 {
			wait = *evaluateTimeout + 5*time.Second
			if min := 30 * time.Second; wait < min {
				wait = min
			}
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("fademl-serve: shutdown: %v", err)
		}
	}
	srv.Close()
	st := srv.Stats()
	log.Printf("fademl-serve: done — %d requests in %d batches (mean occupancy %.2f, p50 %.2fms, p99 %.2fms); "+
		"lanes interactive %d/%d shed, bulk %d/%d shed; cache %.0f%% hit",
		st.Requests, st.Batches, st.MeanBatchOccupancy, st.P50LatencyMs, st.P99LatencyMs,
		st.Interactive.Shed, st.Interactive.Admitted, st.Bulk.Shed, st.Bulk.Admitted,
		100*st.Cache.HitRate)
}

// runFront runs the binary as the multi-replica front door.
func runFront(addr string, backends []string, t fademl.HTTPTimeouts, opts fademl.FrontOptions) {
	for i := range backends {
		backends[i] = strings.TrimRight(strings.TrimSpace(backends[i]), "/")
	}
	opts.Backends = backends
	f, err := fademl.NewFront(opts)
	if err != nil {
		usageError(err)
	}
	httpSrv := fademl.NewHTTPServer(addr, f.Handler(), t)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("fademl-front: routing %d backends on %s (probe %v, eject after %d, retries %d, hedge %v)",
		len(backends), addr, opts.ProbeInterval, opts.EjectAfter, opts.MaxRetries, opts.Hedge)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Print("fademl-front: signal received, draining...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("fademl-front: shutdown: %v", err)
		}
	}
	f.Close()
	for _, r := range f.Snapshot() {
		log.Printf("fademl-front: %s healthy=%v proxied=%d errs=%d ejections=%d",
			r.URL, r.Healthy, r.Proxied, r.Errs, r.Ejections)
	}
}

func usageError(err error) {
	fmt.Fprintf(os.Stderr, "fademl-serve: %v\n", err)
	flag.Usage()
	os.Exit(2)
}
