// Package fademl is the public facade of the FAdeML reproduction: a
// from-scratch Go implementation of "FAdeML: Understanding the Impact of
// Pre-Processing Noise Filtering on Adversarial Machine Learning"
// (Khalid et al., DATE 2019), grown into a concurrent
// adversarial-robustness service.
//
// ARCHITECTURE.md is the one-page system map — layers, concurrency
// model, and the invariants each layer guarantees. FILTERS.md documents
// the defense library and its spec syntax; ATTACKS.md documents the
// attack library, budgets and truncation; PERFORMANCE.md holds the
// current performance numbers and how to reproduce them.
//
// The library provides, all on the standard library alone:
//
//   - a float64 tensor/neural-network substrate with the paper's VGGNet
//     topology (internal/tensor, internal/nn, internal/train);
//   - a procedural 43-class GTSRB substitute (internal/gtsrb);
//   - the defense library: the paper's LAP/LAR noise filters with exact
//     adjoints, the classical smoothers (Gaussian, median, box,
//     bilateral, non-local means), the Section I-C pre-processing stages
//     (grayscale, normalization, histogram equalization) and the classic
//     adversarial defenses (JPEG-like DCT quantization, bit-depth
//     squeezing, total-variation denoising) — all parameterized,
//     batchable and chainable via spec strings (internal/filters);
//   - an adversarial attack library — L-BFGS, FGSM, BIM, MIM, PGD,
//     DeepFool, C&W, JSMA, one-pixel, SPSA — and the FAdeML filter-aware
//     wrapper (internal/attacks);
//   - the threat-model pipeline of the paper's Fig. 2 and the Section III
//     analysis methodology (internal/pipeline, internal/analysis);
//   - experiment runners regenerating Figs. 5/6/7/9 (internal/experiments);
//   - an online inference service with dynamic micro-batching, plus
//     robustness- and defense-as-a-service endpoints (internal/serve,
//     cmd/fademl-serve);
//   - a feature-squeezing discrepancy detector — an ensemble of cheap
//     squeezers whose prediction disagreement scores adversarial inputs —
//     served on demand (/v1/detect) or inline as a detect-then-correct
//     routing mode (internal/detect, ServeOptions.Detector).
//
// This package re-exports the surface a downstream user needs so examples
// and tools read naturally. Attacks AND filters are declarative spec
// strings, and every attack execution is context-aware, budgeted and
// cancellable:
//
//	env, _ := fademl.NewEnv(fademl.ProfileTiny(), "", nil)
//	flt, _ := fademl.ParseFilter("chain(median(r=1),lap(np=32))")
//	p := fademl.NewPipeline(env.Net, flt, nil)
//	atk, _ := fademl.ParseAttack("bim(eps=0.1,steps=40)")
//	out, _ := fademl.Execute(ctx, fademl.Run{
//	    Pipeline: p, Attack: atk, FilterAware: true, TM: fademl.TM3,
//	    Budget: fademl.Budget{MaxQueries: 500},
//	}, img, src, dst)
//	if out.AttackerResult.Truncated { /* budget hit; best-so-far result */ }
//
// Serving the same pipeline online — concurrent clients coalesce into
// batched forwards (the filter stage runs batched too), each response
// bit-identical to a direct Probs call, and the robustness/defense
// endpoints craft attacks and sweep filters server-side under a hard
// budget:
//
//	srv := fademl.NewServer(p, fademl.ServeOptions{MaxBatch: 16})
//	defer srv.Close()
//	pred, _ := srv.Predict(ctx, img, fademl.TM2)
//	http.ListenAndServe(":8080", srv.Handler()) // /v1/predict, /v1/defend,
//	                                            // /v1/attack, /v1/evaluate,
//	                                            // ... (or: cmd/fademl-serve)
package fademl

import (
	"context"
	"io"
	"net/http"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/filters"
	"repro/internal/front"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Core value types re-exported from the internal packages.
type (
	// Tensor is a dense float64 N-d array (images are CHW in [0, 1]).
	Tensor = tensor.Tensor
	// Network is a trained sequential classifier.
	Network = nn.Network
	// Filter is one pre-processing stage (Apply + VJP).
	Filter = filters.Filter
	// Attack generates adversarial examples.
	Attack = attacks.Attack
	// Goal selects the attack payload (source and target classes).
	Goal = attacks.Goal
	// Result is an attack outcome (Truncated marks budget-cut runs).
	Result = attacks.Result
	// Budget caps an attack run's work (queries, iterations, deadline).
	Budget = attacks.Budget
	// Observer receives per-iteration attack progress callbacks.
	Observer = attacks.Observer
	// Progress is one observer checkpoint.
	Progress = attacks.Progress
	// Param describes one spec-settable attack knob.
	Param = attacks.Param
	// ConfigurableAttack is an attack exposing its knobs as Params().
	ConfigurableAttack = attacks.Configurable
	// ConfigurableFilter is a filter exposing its knobs as Params().
	ConfigurableFilter = filters.Configurable
	// Classifier is the attacker's differentiable model interface.
	Classifier = attacks.Classifier
	// AdaptiveMode selects how an attacker models the deployed
	// pre-processing chain: blind, bpda, or eot(draws=N).
	AdaptiveMode = attacks.AdaptiveMode
	// Pipeline is the deployed inference system of the paper's Fig. 2.
	Pipeline = pipeline.Pipeline
	// Acquisition simulates the data-capture stage of Threat Model II.
	Acquisition = pipeline.Acquisition
	// ThreatModel selects where the adversary enters the pipeline.
	ThreatModel = pipeline.ThreatModel
	// Precision selects the numeric lane a prediction runs on: the
	// float64 reference lane or the float32 serving fast path.
	Precision = pipeline.Precision
	// Net32 is a frozen float32 inference snapshot of a Network with
	// fused conv+ReLU / dense+ReLU kernels (Network.ToFloat32).
	Net32 = nn.Net32
	// Run couples a pipeline, an attack and a threat model for Execute.
	Run = core.Run
	// Outcome is Execute's result: attacker view plus deployed view.
	Outcome = core.Outcome
	// Scenario is one of the paper's five targeted payloads.
	Scenario = experiments.Scenario
	// Profile sizes an experimental run.
	Profile = experiments.Profile
	// Env is a generated dataset plus trained model.
	Env = experiments.Env
	// SweepOptions narrows the Fig. 7 / Fig. 9 grids.
	SweepOptions = experiments.SweepOptions
	// Server is the micro-batching online inference service.
	Server = serve.Server
	// ServeOptions configures a Server (workers, batch size, linger).
	ServeOptions = serve.Options
	// EvalCase is one source→target scenario for the serving layer's
	// robustness endpoints.
	EvalCase = serve.EvalCase
	// ServeAttackRequest describes one server-side crafting job.
	ServeAttackRequest = serve.AttackRequest
	// ServeEvaluateRequest describes a server-side fooling-rate sweep
	// over attack spec × filter spec × threat model.
	ServeEvaluateRequest = serve.EvaluateRequest
	// ServeDefendRequest describes one server-side filtering job.
	ServeDefendRequest = serve.DefendRequest
	// Detector is the feature-squeezing discrepancy ensemble: an input is
	// flagged when the model's prediction moves too much under any of the
	// detector's squeezers.
	Detector = detect.Detector
	// ServeDetectRequest describes one on-demand /v1/detect job.
	ServeDetectRequest = serve.DetectRequest
	// ServeChaos injects controlled faults into a Server: delayed
	// batches, killed workers, failed batches.
	ServeChaos = serve.Chaos
	// HTTPTimeouts bounds the lifecycle phases of served HTTP
	// connections (slow-loris hardening).
	HTTPTimeouts = serve.HTTPTimeouts
	// Registry is the versioned on-disk model store: immutable
	// name@version entries, each a manifest (architecture spec + weight
	// SHA-256 + lineage) beside its weight blob, with hash-verified loads.
	Registry = registry.Registry
	// RegistryModel is one loaded registry entry: its manifest plus the
	// ready float64 network and float32 serving snapshot.
	RegistryModel = registry.Model
	// RegistrySaveOptions annotates a Registry.Save call.
	RegistrySaveOptions = registry.SaveOptions
	// ModelRef names one registry version (Name + Version; empty Version
	// means "latest").
	ModelRef = registry.Ref
	// ArchSpec declaratively describes a buildable network architecture
	// (family "vgg" or "tinycnn" plus geometry), so a manifest alone can
	// reconstruct the network its weights belong to.
	ArchSpec = registry.ArchSpec
	// Front is the multi-replica front door: a consistent-hash router
	// with health-driven ejection and bounded retries.
	Front = front.Front
	// FrontOptions configures a Front (backends, probing, retries,
	// hedging).
	FrontOptions = front.Options
)

// Threat models of the paper's Fig. 2.
const (
	// TM1: attacker writes directly into the post-filter input buffer.
	TM1 = pipeline.TM1
	// TM2: attacker perturbs the scene before data acquisition.
	TM2 = pipeline.TM2
	// TM3: attacker perturbs acquired data before the filter.
	TM3 = pipeline.TM3
)

// Precision lanes for the serving layer's fast path.
const (
	// PrecisionFloat64 is the reference lane (default): the lane the
	// paper metrics, attacks and training run on.
	PrecisionFloat64 = pipeline.Float64
	// PrecisionFloat32 is the fast lane: a float32 forward pass over
	// once-rounded weights, float64 softmax over exactly-widened logits.
	PrecisionFloat32 = pipeline.Float32
)

// Untargeted is the Goal.Target sentinel for untargeted evasion.
const Untargeted = attacks.Untargeted

// NumClasses is the GTSRB class count (43).
const NumClasses = gtsrb.NumClasses

// PaperScenarios are the paper's five payloads (stop→60, 30→80,
// left→right, right→left, no-entry→60).
var PaperScenarios = experiments.PaperScenarios

// PaperAttacks are the attack names the paper evaluates (lbfgs, fgsm, bim).
var PaperAttacks = attacks.PaperAttacks

// Filters.

// NewLAP builds the paper's local-average filter over the np nearest
// neighbour pixels (np ∈ {4, 8, 16, 32, 64} in the paper's sweeps).
func NewLAP(np int) Filter { return filters.NewLAP(np) }

// NewLAR builds the paper's local-average filter over the disk of radius
// r (r ∈ {1..5} in the paper's sweeps).
func NewLAR(r int) Filter { return filters.NewLAR(r) }

// NewGaussian builds a Gaussian blur filter (library extension).
func NewGaussian(sigma float64) Filter { return filters.NewGaussian(sigma) }

// NewMedian builds a median filter with BPDA backward pass (extension).
func NewMedian(radius int) Filter { return filters.NewMedian(radius) }

// NewGrayscale builds the gray-scaling pre-processing stage the paper's
// Section I-C lists (luminance replicated over three channels).
func NewGrayscale() Filter { return filters.Grayscale{} }

// NewNormalize builds the per-image standardization stage.
func NewNormalize(mean, std float64) Filter { return filters.NewNormalize(mean, std) }

// IsStochasticFilter reports whether f (or any stage of a chain)
// carries seeded randomness.
func IsStochasticFilter(f Filter) bool { return filters.IsStochastic(f) }

// FilterChain composes filters left to right.
func FilterChain(fs ...Filter) Filter { return filters.Chain(fs) }

// NewNamedFilter builds a default-configured filter from the registry by
// name: bilateral, bitdepth, box, gaussian, grayscale, histeq, jpeg,
// lap, lar, median, nlm, normalize, tv.
func NewNamedFilter(name string) (Filter, error) { return filters.New(name) }

// FilterNames lists the registered filter names.
func FilterNames() []string { return filters.Names() }

// SplitFilterSpecs splits a comma-separated list of filter specs at top
// level, so parameter lists and chain stages inside parentheses survive
// intact.
func SplitFilterSpecs(list string) []string { return filters.SplitSpecs(list) }

// Attacks.

// NewAttack builds a default-configured attack from the library by name:
// lbfgs, fgsm, bim, mim, pgd, cw, deepfool, jsma, onepixel, spsa.
func NewAttack(name string) (Attack, error) { return attacks.New(name) }

// ParseAttack builds a configured attack from a spec string such as
// "pgd(eps=0.03,steps=40)" — the same syntax the -attack CLI flags,
// experiment sweeps and the serving API accept. For every registry
// attack, ParseAttack(atk.Name()) round-trips.
func ParseAttack(spec string) (Attack, error) { return attacks.Parse(spec) }

// SplitAttackSpecs splits a comma-separated list of attack specs at top
// level, so parameter lists inside parentheses survive intact.
func SplitAttackSpecs(list string) []string { return attacks.SplitSpecs(list) }

// ParseAdaptive builds an adaptive crafting mode from a spec string:
// "blind", "bpda", or "eot(draws=N)". For every accepted spec,
// ParseAdaptive(m.Name()) round-trips.
func ParseAdaptive(spec string) (AdaptiveMode, error) { return attacks.ParseAdaptive(spec) }

// WithBudget attaches an attack work budget to a context: any Generate
// or Execute under it truncates at iteration granularity once the budget
// is spent, returning the best-so-far result flagged Truncated.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return attacks.WithBudget(ctx, b)
}

// NewFGSM builds a fast-gradient-sign attack with an explicit L∞ budget.
func NewFGSM(epsilon float64) Attack { return &attacks.FGSM{Epsilon: epsilon} }

// NewBIM builds a basic-iterative-method attack with an explicit budget:
// total L∞ epsilon, per-step alpha and iteration count.
func NewBIM(epsilon, alpha float64, steps int) Attack {
	return &attacks.BIM{Epsilon: epsilon, Alpha: alpha, Steps: steps, EarlyStop: true}
}

// NewLBFGSAttack builds the box-constrained L-BFGS attack with an explicit
// iteration budget per penalty value.
func NewLBFGSAttack(maxIter int) Attack {
	return &attacks.LBFGS{InitialC: 10, CSteps: 6, MaxIter: maxIter}
}

// NewCW builds the Carlini & Wagner L2 attack with confidence margin kappa.
func NewCW(kappa float64) Attack {
	return &attacks.CW{Kappa: kappa, Steps: 150, LR: 0.05, InitialC: 5, BinarySearch: 3}
}

// AttackNames lists the registered attack names.
func AttackNames() []string { return attacks.Names() }

// NewFAdeML wraps a base attack so its optimization models the given
// pre-processing filter — the paper's core contribution.
func NewFAdeML(base Attack, filter Filter) Attack { return attacks.NewFAdeML(base, filter) }

// WrapNetwork adapts a trained network to the attacker-facing Classifier.
func WrapNetwork(net *Network) Classifier { return attacks.NetClassifier{Net: net} }

// Pipeline construction and execution.

// NewPipeline builds a deployed inference pipeline; filter may be nil
// (no pre-processing) and acq may be nil (no capture modeling).
func NewPipeline(net *Network, filter Filter, acq *Acquisition) *Pipeline {
	return pipeline.New(net, filter, acq)
}

// NewAcquisition models the capture stage (gain, sensor noise, 8-bit
// quantization) for Threat Model II. The sensor-noise stream is a pure
// function of (seed, image), so acquisition is safe for concurrent use
// and bit-identical across serial, parallel and served runs.
func NewAcquisition(gain, noiseStd float64, quantize bool, seed uint64) *Acquisition {
	return pipeline.NewAcquisition(gain, noiseStd, quantize, seed)
}

// ParseThreatModel converts a user-supplied string ("2", "tm3", "TM-II",
// …) into a ThreatModel, returning an error for anything else — validate
// CLI flags and request fields with it instead of panicking in Deliver.
func ParseThreatModel(s string) (ThreatModel, error) { return pipeline.ParseThreatModel(s) }

// ParsePrecision converts a user-supplied string ("float32", "f64",
// "single", …) into a Precision, with an error for anything else. The
// empty string selects the float64 reference lane.
func ParsePrecision(s string) (Precision, error) { return pipeline.ParsePrecision(s) }

// ParseFilter builds a configured filter from a spec string such as
// "median(r=2)", "gaussian(sigma=1.5)" or a paren-aware chain
// "chain(median(r=1),histeq(bins=64))" — the same syntax the -filter CLI
// flags, sweep configurations and the serving API accept. "none" and ""
// select no filtering and return (nil, nil), which NewPipeline treats as
// the identity. The legacy KIND:PARAM forms (LAP:32, LAR:3, …) are still
// accepted. For every registry filter, ParseFilter(f.Name()) round-trips.
// Unknown params and out-of-range values are usage-style errors, never
// panics. See FILTERS.md for the full grammar and parameter tables.
func ParseFilter(spec string) (Filter, error) { return filters.Parse(spec) }

// Detection.

// ParseDetector builds a configured discrepancy detector from a spec
// string such as "detect(squeezers=(bitdepth(bits=4),median(r=1)),thr=0.6)"
// — bare "detect" selects the default ensemble; "none" and "" disable
// detection and return (nil, nil). Squeezer entries use the ParseFilter
// grammar. Malformed specs are usage-style errors, never panics. For
// every detector, ParseDetector(d.Name()) round-trips.
func ParseDetector(spec string) (*Detector, error) { return detect.Parse(spec) }

// DefaultDetector is the paper-guided default ensemble: bit-depth
// squeezing to 4 bits plus a radius-1 median filter, L1 metric,
// threshold 1.0 (recalibrate with Detector.Calibrate or
// Server.CalibrateDetector for a target clean false-positive rate).
func DefaultDetector() *Detector { return detect.Default() }

// Serving.

// NewServer starts a micro-batching inference service over the deployed
// pipeline: concurrent Predict calls coalesce into batched forwards on a
// pool of weight-sharing network clones; every response is bit-identical
// to a direct Pipeline.Probs call. Serve HTTP with srv.Handler() (see
// cmd/fademl-serve) or call Predict/Do in-process; stop with Close.
func NewServer(p *Pipeline, opts ServeOptions) *Server { return serve.New(p, opts) }

// Model registry.
//
// The registry breaks the one-global-network assumption: models live in
// a versioned store, pipelines carry their identity, and the server
// serves a table of versions with atomic hot-swap of the default. See
// Example (registry) for the end-to-end flow.

// OpenRegistry opens (creating it if needed) a model registry rooted at
// dir. Entries are immutable once written: Save mints monotonically
// increasing versions (v1, v2, …) and dedupes identical weights;
// Load verifies the weight blob's SHA-256 against the manifest before
// trusting it, and caches the built networks per version.
func OpenRegistry(root string) (*Registry, error) { return registry.Open(root) }

// ParseModelRef parses "name" or "name@version" into a ModelRef.
func ParseModelRef(spec string) (ModelRef, error) { return registry.ParseRef(spec) }

// NewServerFromModel starts a server over a registry-loaded model: the
// served pipeline carries the model's name@version identity, and when
// opts.Registry points at the same store, sibling versions can be
// hot-swapped in under live traffic via srv.Activate (or POST
// /v1/models) without shedding or failing a single request.
func NewServerFromModel(m *RegistryModel, filter Filter, acq *Acquisition, opts ServeOptions) *Server {
	return serve.NewFromModel(m, filter, acq, opts)
}

// NewFront starts the multi-replica front door: a consistent-hash
// router over N fademl-serve backends with health-check-driven ejection
// and readmission, bounded jittered retries on transport failure only,
// and optional hedging. Serve HTTP with f.Handler() (see
// cmd/fademl-serve -front) and stop with Close.
func NewFront(opts FrontOptions) (*Front, error) { return front.New(opts) }

// NewHTTPServer builds an http.Server hardened against slow clients:
// every connection phase — header read, body read, response write,
// keep-alive idle — is bounded (see HTTPTimeouts; the zero value
// selects the hardened serving defaults).
func NewHTTPServer(addr string, h http.Handler, t HTTPTimeouts) *http.Server {
	return serve.NewHTTPServer(addr, h, t)
}

// Execute crafts an adversarial example for the scenario source→target and
// measures it against the deployed pipeline under the run's threat model.
// Cancelling ctx or exhausting Run.Budget truncates the attack at
// iteration granularity; the outcome then carries the best-so-far
// adversarial example flagged via AttackerResult.Truncated.
func Execute(ctx context.Context, run Run, clean *Tensor, source, target int) (*Outcome, error) {
	return core.Execute(ctx, run, clean, source, target)
}

// Dataset and environment helpers.

// CanonicalSign renders the canonical (unjittered) image of a GTSRB class.
func CanonicalSign(class, size int) *Tensor { return gtsrb.Canonical(class, size) }

// ClassName returns the GTSRB class name for an id.
func ClassName(id int) string { return gtsrb.ClassName(id) }

// Profiles for NewEnv.
func ProfileTiny() Profile    { return experiments.ProfileTiny() }
func ProfileDefault() Profile { return experiments.ProfileDefault() }
func ProfilePaper() Profile   { return experiments.ProfilePaper() }

// ParseProfile resolves a -profile flag value (tiny, default, paper)
// into a Profile, with an error instead of a panic for bad input.
func ParseProfile(name string) (Profile, error) { return experiments.ParseProfile(name) }

// NewEnv generates the synthetic GTSRB splits and loads or trains the
// profile's VGGNet (cacheDir may be empty to disable the weight cache;
// log may be nil or e.g. os.Stdout).
func NewEnv(p Profile, cacheDir string, log io.Writer) (*Env, error) {
	return experiments.NewEnv(p, cacheDir, log)
}

// Figure runners (see EXPERIMENTS.md for the paper mapping). All of them
// honour ctx: cancellation aborts the sweep with the context error.
// attackNames entries may be registry names or parameterized spec strings.

// RunFig5 regenerates Fig. 5 (attacks under Threat Model I).
func RunFig5(ctx context.Context, env *Env, attackNames []string) (*experiments.Fig5Result, error) {
	return experiments.RunFig5(ctx, env, attackNames)
}

// RunFig6 regenerates Fig. 6 (top-5 accuracy under attack, no filter).
func RunFig6(ctx context.Context, env *Env, attackNames []string) (*experiments.Fig6Result, error) {
	return experiments.RunFig6(ctx, env, attackNames)
}

// RunFig7 regenerates Fig. 7 (filter-blind attacks neutralized by LAP/LAR).
func RunFig7(ctx context.Context, env *Env, opt SweepOptions) (*experiments.Fig7Result, error) {
	return experiments.RunFig7(ctx, env, opt)
}

// RunFig9 regenerates Fig. 9 (FAdeML attacks surviving LAP/LAR).
func RunFig9(ctx context.Context, env *Env, opt SweepOptions) (*experiments.Fig7Result, error) {
	return experiments.RunFig9(ctx, env, opt)
}
