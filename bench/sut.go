package main

// sut.go is the benchmark's whole compile-time surface on the system
// under test: every Go symbol of the repo the bench names lives in this
// file (facade first; internal/… only where the facade has no entry).
// The five HTTP workloads depend on nothing here but the direct-call
// oracle that checks their answers — their traffic is fademl-serve flags
// plus the JSON wire format. A PR that reshapes the Go API has this one
// file to follow up.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	fademl "repro"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The deployment every workload and every ladder rung runs against: the
// shipped fademl-serve defaults, made explicit.
const (
	deployFilter  = "lap(np=32)"
	deployAcqSeed = 97
	imageSide     = 32
	serveWorkers  = 2
	serveMaxBatch = 16
	serveMaxWait  = 2 * time.Millisecond
	craftQueries  = 200
)

// defendSpecs are the defend_mix filter specs, with the short keys the
// filters.apply_us.<key> ladder metrics use.
var defendSpecs = []struct{ key, spec string }{
	{"median1", "median(r=1)"},
	{"median1_histeq64", "chain(median(r=1),histeq(bins=64))"},
	{"jpeg50", "jpeg(q=50)"},
	{"tv10", "tv(lambda=0.1,iters=10)"},
	{"bilateral2", "bilateral(r=2,ss=1.5,sc=0.1)"},
	{"gaussian1", "gaussian(sigma=1)"},
	{"bitdepth4", "bitdepth(bits=4)"},
	{"lar3", "lar(r=3)"},
}

// craftAttacks and craftFilters are two of the craft_grid axes; the
// others are {blind, filter-aware}, the five paper scenarios and three
// replicates.
var (
	craftAttacks = []string{"fgsm", "bim", "pgd", "mim", "lbfgs", "cw"}
	craftFilters = []string{"lap(np=32)", "lar(r=3)"}
)

const (
	craftScenarios  = 5
	craftReplicates = 3
)

// serveFlags are the fademl-serve flags of the common set-up.
func serveFlags(addr, cacheDir string) []string {
	return []string{
		"-addr", addr, "-profile", "tiny", "-filter", deployFilter, "-tm", "2",
		"-precision", "float64", "-workers", strconv.Itoa(serveWorkers),
		"-max-batch", strconv.Itoa(serveMaxBatch), "-max-wait", serveMaxWait.String(),
		"-acq-seed", strconv.Itoa(deployAcqSeed), "-cache", cacheDir,
	}
}

// sut is the system under test loaded in-process: the cached tiny-profile
// weights behind the deployed pipeline. The oracle methods are the direct
// calls served answers must equal exactly; the rung methods are what the
// ladder times.
type sut struct {
	net  *fademl.Network
	pipe *fademl.Pipeline
}

// loadSUT loads (training once on a cache miss) the tiny-profile weights
// from cacheDir. It returns how long a training run took, or 0 when the
// weights were already cached.
func loadSUT(cacheDir string, log io.Writer) (*sut, float64, error) {
	_, err := registry.ReadSidecar(weightsPath(cacheDir))
	cached := err == nil
	start := time.Now()
	env, err := fademl.NewEnv(fademl.ProfileTiny(), cacheDir, log)
	if err != nil {
		return nil, 0, err
	}
	fitS := 0.0
	if !cached {
		fitS = time.Since(start).Seconds()
	}
	s, err := newSUT(env.Net)
	return s, fitS, err
}

func weightsPath(cacheDir string) string {
	return filepath.Join(cacheDir, "vgg-"+fademl.ProfileTiny().CacheKey()+".weights")
}

// untrainedNet builds the tiny-profile topology with its seeded initial
// weights — enough for tests, where served ≡ direct holds for any weights.
func untrainedNet() (*fademl.Network, error) {
	p := fademl.ProfileTiny()
	return nn.VGGNet(nn.ScaledVGGConfig(3, p.Size, fademl.NumClasses, p.VGGScale), mathx.NewRNG(p.Seed))
}

func newSUT(net *fademl.Network) (*sut, error) {
	p, err := deployedPipeline(net, deployFilter)
	if err != nil {
		return nil, err
	}
	return &sut{net: net, pipe: p}, nil
}

// deployedPipeline is what fademl-serve builds from its flags, with both
// precision lanes enabled.
func deployedPipeline(net *fademl.Network, filterSpec string) (*fademl.Pipeline, error) {
	f, err := fademl.ParseFilter(filterSpec)
	if err != nil {
		return nil, err
	}
	p := fademl.NewPipeline(net, f, fademl.NewAcquisition(1.0, 1.0/255, true, deployAcqSeed))
	if err := p.EnableFloat32(); err != nil {
		return nil, err
	}
	return p, nil
}

func toTensor(pix []float64) *fademl.Tensor {
	return tensor.FromSlice(pix, 3, imageSide, imageSide)
}

// renderImages draws n seeded, jittered signs, classes cycling 0..42.
func renderImages(seed uint64, n int) [][]float64 {
	rng := mathx.NewRNG(seed ^ 0xbe7c4)
	out := make([][]float64, n)
	for i := range out {
		out[i] = gtsrb.Render(i%fademl.NumClasses, imageSide, gtsrb.RandomJitter(rng), rng).Data()
	}
	return out
}

// topOf is the (class, prob) pair a served prediction carries.
func topOf(probs []float64) answer {
	best := mathx.ArgMax(probs)
	return answer{best, probs[best]}
}

// predict is the direct call a served /v1/predict (TM-II) must equal.
func (s *sut) predict(pix []float64, f32 bool) answer {
	if f32 {
		return topOf(s.pipe.Probs32(toTensor(pix), fademl.TM2))
	}
	return topOf(s.pipe.Probs(toTensor(pix), fademl.TM2))
}

// defend is the direct call a served /v1/defend with predict:true must
// equal: the spec'd filter, then the bare network on the filtered image.
func (s *sut) defend(pix []float64, spec string) (answer, error) {
	f, err := fademl.ParseFilter(spec)
	if err != nil {
		return answer{}, err
	}
	return topOf(s.net.Probs(f.Apply(toTensor(pix)))), nil
}

// newServer starts the in-process twin of the fademl-serve child.
func (s *sut) newServer() *fademl.Server {
	return fademl.NewServer(s.pipe, fademl.ServeOptions{
		Workers: serveWorkers, MaxBatch: serveMaxBatch, MaxWait: serveMaxWait,
		DefaultTM: fademl.TM2, Precision: fademl.PrecisionFloat64,
		ClassName:       fademl.ClassName,
		PredictDeadline: 500 * time.Millisecond, DefendDeadline: 2 * time.Second,
	})
}

// Craft path.

// craftCell is one cell of the craft_grid workload.
type craftCell struct {
	Attack   string
	Aware    bool
	Filter   int // index into craftFilters
	Scenario int // index into fademl.PaperScenarios
	Draw     int // which seeded jitter draw of the scenario's source sign
}

// craftGrid lists the 360 cells in claim order. The attack axis varies
// fastest so every run of consecutive cells is the same mix of cheap and
// expensive attacks, whatever length the measure window cuts it to. Every
// cell crafts on its own jitter draw of its scenario's source sign: how
// long an attack runs depends on the image, and a window that averages
// over hundreds of draws instead of fifteen moves far less with the seed.
func craftGrid() []craftCell {
	var cells []craftCell
	draws := make([]int, craftScenarios)
	for rep := 0; rep < craftReplicates; rep++ {
		for sc := 0; sc < craftScenarios; sc++ {
			for f := range craftFilters {
				for _, aware := range []bool{false, true} {
					for _, a := range craftAttacks {
						cells = append(cells, craftCell{a, aware, f, sc, draws[sc]})
						draws[sc]++
					}
				}
			}
		}
	}
	return cells
}

// craftOutcome is what a cell's exact counts are summed from.
type craftOutcome struct {
	Queries     int  `json:"q"`
	Hit         bool `json:"hit"`
	Neutralized bool `json:"neut"`
	Survived    bool `json:"surv"`
	Truncated   bool `json:"trunc"`
}

// crafter executes cells on one worker's private pipelines (one network
// clone shared by a pipeline per deployed filter).
type crafter struct {
	seed    uint64
	pipes   []*fademl.Pipeline
	attacks map[string]fademl.Attack
	sources map[[2]int]*fademl.Tensor // (scenario, draw) -> rendered source sign
}

func (s *sut) newCrafter(seed uint64) (*crafter, error) {
	c := &crafter{seed: seed, attacks: map[string]fademl.Attack{}, sources: map[[2]int]*fademl.Tensor{}}
	net := s.net.Clone()
	for _, spec := range craftFilters {
		p, err := deployedPipeline(net, spec)
		if err != nil {
			return nil, err
		}
		c.pipes = append(c.pipes, p)
	}
	for _, name := range craftAttacks {
		a, err := fademl.ParseAttack(name)
		if err != nil {
			return nil, err
		}
		c.attacks[name] = a
	}
	return c, nil
}

// source renders (once) the cell's input: a jitter draw that is a pure
// function of (seed, scenario, draw). Callers time cells after this.
func (c *crafter) source(cell craftCell) *fademl.Tensor {
	key := [2]int{cell.Scenario, cell.Draw}
	img, ok := c.sources[key]
	if !ok {
		rng := mathx.NewRNG(c.seed ^ uint64(cell.Scenario+1)*0x9e3779b97f4a7c15 ^ uint64(cell.Draw+1)*0xc2b2ae3d27d4eb4f)
		img = gtsrb.Render(fademl.PaperScenarios[cell.Scenario].Source, imageSide, gtsrb.RandomJitter(rng), rng)
		c.sources[key] = img
	}
	return img
}

func (c *crafter) run(cell craftCell) fademl.Run {
	return fademl.Run{
		Pipeline: c.pipes[cell.Filter], Attack: c.attacks[cell.Attack], FilterAware: cell.Aware,
		TM: fademl.TM3, Budget: fademl.Budget{MaxQueries: craftQueries},
	}
}

// execute is the craft_grid item: one core.Execute.
func (c *crafter) execute(cell craftCell) (craftOutcome, error) {
	sc := fademl.PaperScenarios[cell.Scenario]
	out, err := fademl.Execute(context.Background(), c.run(cell), c.source(cell), sc.Source, sc.Target)
	if err != nil {
		return craftOutcome{}, err
	}
	return craftOutcome{
		Queries: out.AttackerResult.Queries, Hit: out.AttackerResult.Success,
		Neutralized: out.Comparison.Neutralized, Survived: out.Comparison.SurvivedFilter,
		Truncated: out.AttackerResult.Truncated,
	}, nil
}

// craftResult is a crafted adversarial example with its query count.
type craftResult = fademl.Result

// generate and compare are the two halves of execute, for the ladder:
// Attack.Generate against the attacker's model, then analysis.Compare.
func (c *crafter) generate(cell craftCell) (*craftResult, error) {
	run := c.run(cell)
	atk := run.Attack
	if cell.Aware {
		atk = fademl.NewFAdeML(atk, run.Pipeline.AttackerModel(run.TM))
	}
	sc := fademl.PaperScenarios[cell.Scenario]
	ctx := fademl.WithBudget(context.Background(), run.Budget)
	return atk.Generate(ctx, fademl.WrapNetwork(run.Pipeline.Net), c.source(cell), fademl.Goal{Source: sc.Source, Target: sc.Target})
}

func (c *crafter) compare(cell craftCell, res *craftResult) {
	sc := fademl.PaperScenarios[cell.Scenario]
	analysis.Compare(c.pipes[cell.Filter], c.source(cell), res.Adversarial, sc.Source, sc.Target, fademl.TM3, cell.Attack)
}

// Ladder rungs: one call each into a module's public functions, on
// inputs prepared (untimed) by ladderInput.

// ladderInput is everything the per-image rungs of one ladder round need.
type ladderInput struct {
	x         *fademl.Tensor   // the round's image
	unique    *fademl.Tensor   // its own variant for serve.predict_unique
	defendImg *fademl.Tensor   // its own variant for serve.defend
	hot       *fademl.Tensor   // the fixed, pre-warmed image
	batch     []*fademl.Tensor // 16 images for the batch rungs
	tms       []fademl.ThreatModel
	acquired  *fademl.Tensor
	delivered *fademl.Tensor
	deliv16   []*fademl.Tensor
	label     int
	spec      string
}

// ladderRig holds what the rungs call into.
type ladderRig struct {
	s        *sut
	srv      *fademl.Server
	handler  http.Handler
	net32    *fademl.Net32
	lap      fademl.Filter
	specs    []fademl.Filter
	det      *fademl.Detector
	a64, b64 *fademl.Tensor
	a32, b32 *tensor.Tensor32
	ce       nn.Loss
}

const matmulDim = 128

func (s *sut) newLadderRig() (*ladderRig, error) {
	r := &ladderRig{s: s, srv: s.newServer(), net32: s.pipe.Net32(), lap: s.pipe.Filter, det: detect.Default(), ce: nn.CrossEntropy{}}
	r.handler = r.srv.Handler()
	for _, d := range defendSpecs {
		f, err := fademl.ParseFilter(d.spec)
		if err != nil {
			return nil, err
		}
		r.specs = append(r.specs, f)
	}
	rng := mathx.NewRNG(7)
	r.a64, r.b64 = tensor.New(matmulDim, matmulDim), tensor.New(matmulDim, matmulDim)
	for i := range r.a64.Data() {
		r.a64.Data()[i], r.b64.Data()[i] = rng.Norm(), rng.Norm()
	}
	r.a32, r.b32 = r.a64.Float32(), r.b64.Float32()
	return r, nil
}

func (r *ladderRig) close() { r.srv.Close() }

func (r *ladderRig) input(x, unique, defendImg, hot []float64, batch [][]float64, label int, spec string) *ladderInput {
	in := &ladderInput{x: toTensor(x), unique: toTensor(unique), defendImg: toTensor(defendImg), hot: toTensor(hot), label: label, spec: spec}
	for _, b := range batch {
		in.batch = append(in.batch, toTensor(b))
		in.tms = append(in.tms, fademl.TM2)
	}
	in.acquired = r.s.pipe.Acq.Apply(in.x)
	in.delivered = r.s.pipe.Deliver(in.x, fademl.TM2)
	in.deliv16 = r.s.pipe.DeliverGrouped(in.batch, in.tms)
	return in
}

// rungs returns the per-image rungs, outermost first. Each entry's parent
// is the rung above it on the same path; per is the number of images one
// call covers. The matmul rungs are a 128³ kernel probe, not a call the
// forward rungs contain, so they have no parent.
func (r *ladderRig) rungs() []rung {
	ctx := context.Background()
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("ladder rung failed: %v", err))
		}
	}
	rs := []rung{
		{name: "serve.predict_unique_us", parent: "serve.http_unique_us", alloc: true, call: func(in *ladderInput) {
			_, err := r.srv.Predict(ctx, in.unique, fademl.TM2)
			must(err)
		}},
		{name: "serve.predict_hit_us", parent: "serve.http_hit_us", alloc: true, call: func(in *ladderInput) {
			_, err := r.srv.Predict(ctx, in.hot, fademl.TM2)
			must(err)
		}},
		{name: "serve.defend_us", alloc: true, call: func(in *ladderInput) {
			_, err := r.srv.Defend(ctx, fademl.ServeDefendRequest{Image: in.defendImg, Spec: in.spec, Predict: true})
			must(err)
		}},
		{name: "pipeline.probs_tm2_us", parent: "serve.predict_unique_us", call: func(in *ladderInput) { r.s.pipe.Probs(in.x, fademl.TM2) }},
		{name: "pipeline.deliver_tm2_us", parent: "pipeline.probs_tm2_us", call: func(in *ladderInput) { r.s.pipe.Deliver(in.x, fademl.TM2) }},
		{name: "pipeline.deliver_grouped16_us_per_img", per: 16, call: func(in *ladderInput) { r.s.pipe.DeliverGrouped(in.batch, in.tms) }},
		{name: "pipeline.acquire_us", parent: "pipeline.deliver_tm2_us", call: func(in *ladderInput) { r.s.pipe.Acq.Apply(in.x) }},
		{name: "filters.lap32_apply_us", parent: "pipeline.deliver_tm2_us", call: func(in *ladderInput) { r.lap.Apply(in.acquired) }},
		{name: "filters.lap32_apply_batch16_us_per_img", per: 16, call: func(in *ladderInput) { r.lap.ApplyBatch(in.batch) }},
		{name: "filters.lap32_vjp_us", call: func(in *ladderInput) { r.lap.VJP(in.x, in.delivered) }},
		{name: "filters.parse_us", per: len(defendSpecs), call: func(*ladderInput) {
			for _, d := range defendSpecs {
				_, err := fademl.ParseFilter(d.spec)
				must(err)
			}
		}},
		{name: "nn.forward_f64_us", parent: "pipeline.probs_tm2_us", alloc: true, call: func(in *ladderInput) { r.s.net.Probs(in.delivered) }},
		{name: "nn.forward_f32_us", alloc: true, call: func(in *ladderInput) { r.net32.Probs(in.delivered) }},
		{name: "nn.forward_batch16_f64_us_per_img", per: 16, alloc: true, call: func(in *ladderInput) { r.s.net.ProbsBatch(in.deliv16) }},
		{name: "nn.forward_batch16_f32_us_per_img", per: 16, alloc: true, call: func(in *ladderInput) { r.net32.ProbsBatch(in.deliv16) }},
		{name: "nn.input_grad_us", call: func(in *ladderInput) { r.s.net.LossAndInputGrad(in.delivered, in.label, r.ce) }},
		{name: "tensor.matmul_f64_us", call: func(*ladderInput) { tensor.MatMul(r.a64, r.b64) }},
		{name: "tensor.matmul_f32_us", call: func(*ladderInput) { tensor.MatMul32(r.a32, r.b32) }},
		{name: "detect.score_us", call: func(in *ladderInput) { r.det.Score(r.s.net, in.delivered) }},
	}
	for i, d := range defendSpecs {
		f := r.specs[i]
		rs = append(rs, rung{name: "filters.apply_us." + d.key, call: func(in *ladderInput) { f.Apply(in.x) }})
	}
	return rs
}

// newFront puts the multi-replica front door before one replica.
func newFront(replicaURL string) (http.Handler, func(), error) {
	f, err := fademl.NewFront(fademl.FrontOptions{Backends: []string{replicaURL}})
	if err != nil {
		return nil, nil, err
	}
	return f.Handler(), f.Close, nil
}

// Set-up rungs: what a process pays before its first answer.

func (s *sut) setupRungs(cacheDir string) []setupRung {
	p := fademl.ProfileTiny()
	generate := func() (*gtsrb.Dataset, error) {
		return gtsrb.Generate(gtsrb.Config{Size: p.Size, PerClass: p.PerClass, Seed: p.Seed})
	}
	return []setupRung{
		{"experiments.new_env_ms", 3, timed(func() error {
			_, err := fademl.NewEnv(p, cacheDir, nil)
			return err
		})},
		{"registry.load_verified_ms", 3, func() (time.Duration, error) {
			net, err := untrainedNet()
			if err != nil {
				return 0, err
			}
			return timed(func() error {
				_, err := registry.LoadFileVerified(weightsPath(cacheDir), net)
				return err
			})()
		}},
		{"gtsrb.generate_ms", 3, timed(func() error {
			_, err := generate()
			return err
		})},
		{"nn.to_float32_ms", 5, timed(func() error {
			_, err := s.net.ToFloat32()
			return err
		})},
		{"nn.clone_ms", 5, timed(func() error { s.net.Clone(); return nil })},
		{"serve.new_ms", 5, timed(func() error { s.newServer().Close(); return nil })},
		// One tiny-profile epoch on a scratch network: the one place nn
		// forward + backward + optimizer write weights.
		{"train.epoch_ms", 1, func() (time.Duration, error) {
			net, err := untrainedNet()
			if err != nil {
				return 0, err
			}
			ds, err := generate()
			if err != nil {
				return 0, err
			}
			trainSet, _ := ds.Split(p.TrainFrac, p.Seed^0x5eed)
			return timed(func() error {
				_, err := train.Fit(net, trainSet, train.Config{Epochs: 1, BatchSize: p.BatchSize, Schedule: train.ConstantLR(p.LR), Seed: p.Seed})
				return err
			})()
		}},
	}
}
