package fademl

// The benchmark harness regenerates every figure of the paper's evaluation
// (Fig. 5/6/7/9) plus ablations over the design choices called out in
// DESIGN.md. Figure benchmarks are end-to-end experiment runs — execute
// them with a single iteration:
//
//	go test -bench . -benchtime 1x
//
// The first run trains the tiny-profile model (~30 s on one core) and
// caches the weights under testdata/cache; later runs start in seconds.
// cmd/fademl-bench regenerates the same tables on the larger default
// profile for EXPERIMENTS.md.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/experiments"
	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

var (
	benchOnce sync.Once
	benchEnv  *Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = NewEnv(ProfileTiny(), "testdata/cache", nil)
	})
	if benchErr != nil {
		b.Fatalf("bench environment: %v", benchErr)
	}
	return benchEnv
}

// BenchmarkFig5 regenerates Fig. 5: the paper trio forcing all five
// targeted payloads under Threat Model I. Reports the payload success rate.
func BenchmarkFig5(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig5(context.Background(), env, nil)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.SuccessRate()
	}
	b.ReportMetric(100*rate, "%success")
}

// BenchmarkFig6 regenerates Fig. 6: top-5 accuracy of the network over the
// attacked test stream (TM-I, no filter). Reports the worst accuracy drop.
func BenchmarkFig6(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig6(context.Background(), env, nil)
		if err != nil {
			b.Fatal(err)
		}
		drop = res.MaxDrop()
	}
	b.ReportMetric(100*drop, "top5_drop_pts")
}

// BenchmarkFig7 regenerates Fig. 7: filter-blind attacks through the
// LAP/LAR sweep under TM-III, panels plus scenario-1 accuracy curves.
// Reports the neutralization rate.
func BenchmarkFig7(b *testing.B) {
	env := benchEnvironment(b)
	opt := SweepOptions{
		IncludeCurves:  true,
		CurveScenarios: []Scenario{PaperScenarios[0]},
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig7(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.NeutralizationRate()
	}
	b.ReportMetric(100*rate, "%neutralized")
}

// BenchmarkFig9 regenerates Fig. 9: FAdeML filter-aware attacks through
// the same sweep. Reports the survival rate (the paper's headline metric).
func BenchmarkFig9(b *testing.B) {
	env := benchEnvironment(b)
	opt := SweepOptions{
		IncludeCurves:  true,
		CurveScenarios: []Scenario{PaperScenarios[0]},
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig9(context.Background(), env, opt)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.SurvivalRate()
	}
	b.ReportMetric(100*rate, "%survived")
}

// BenchmarkAblationFilterStrength sweeps LAP strength on the clean test
// stream — the inverted-U trade-off behind the paper's Key Insight 2.
// Reports the clean top-5 accuracy through the strongest filter.
func BenchmarkAblationFilterStrength(b *testing.B) {
	env := benchEnvironment(b)
	ds := env.TestSet.Subset(40)
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, np := range filters.PaperLAPSizes {
			f := filters.NewLAP(np)
			m := train.Evaluate(env.Net, ds, func(img *tensor.Tensor, _ int) *tensor.Tensor {
				return f.Apply(img)
			})
			last = m.Top5
		}
	}
	b.ReportMetric(100*last, "top5_LAP64")
}

// BenchmarkAblationEta sweeps the FAdeML η noise-scaling factor (Eq. 3):
// smaller η trades attack survival for imperceptibility. Reports how many
// of the swept η values keep the payload through LAP(8).
func BenchmarkAblationEta(b *testing.B) {
	env := benchEnvironment(b)
	cls := attacks.NetClassifier{Net: env.Net}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	goal := attacks.Goal{Source: sc.Source, Target: sc.Target}
	filter := filters.NewLAP(8)
	etas := []float64{0.25, 0.5, 0.75, 1.0}
	b.ResetTimer()
	survived := 0
	for i := 0; i < b.N; i++ {
		survived = 0
		for _, eta := range etas {
			fa := &attacks.FAdeML{
				Base:   &attacks.BIM{Epsilon: 0.25, Alpha: 0.02, Steps: 60, EarlyStop: true},
				Filter: filter,
				Eta:    eta,
			}
			res, err := fa.Generate(context.Background(), cls, clean, goal)
			if err != nil {
				b.Fatal(err)
			}
			if res.Success {
				survived++
			}
		}
	}
	b.ReportMetric(float64(survived), "etas_surviving")
}

// BenchmarkAblationAttackBudget sweeps the BIM ε budget against the bare
// network — the attack-strength knob behind Fig. 5/6. Reports the smallest
// swept ε (in 1/255 units) that achieves the scenario-1 payload.
func BenchmarkAblationAttackBudget(b *testing.B) {
	env := benchEnvironment(b)
	cls := attacks.NetClassifier{Net: env.Net}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	goal := attacks.Goal{Source: sc.Source, Target: sc.Target}
	budgets := []float64{0.02, 0.04, 0.08, 0.16}
	b.ResetTimer()
	minEps := 0.0
	for i := 0; i < b.N; i++ {
		minEps = 0
		for _, eps := range budgets {
			atk := &attacks.BIM{Epsilon: eps, Alpha: eps / 10, Steps: 40, EarlyStop: true}
			res, err := atk.Generate(context.Background(), cls, clean, goal)
			if err != nil {
				b.Fatal(err)
			}
			if res.Success {
				minEps = eps
				break
			}
		}
	}
	b.ReportMetric(255*minEps, "min_eps_255")
}

// BenchmarkAblationFootprint contrasts the paper's circular LAR footprint
// with an equal-radius square box filter on clean top-5 accuracy.
func BenchmarkAblationFootprint(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var diskMinusBox float64
	for i := 0; i < b.N; i++ {
		points := experiments.RunFootprintAblation(env, []int{2, 3})
		diskMinusBox = 0
		for _, p := range points {
			diskMinusBox += p.DiskTop5 - p.BoxTop5
		}
	}
	b.ReportMetric(100*diskMinusBox, "disk_minus_box_pts")
}

// --- substrate micro-benchmarks ---

// BenchmarkVGGForward measures one eval-mode forward pass of the tiny
// VGGNet on a 32×32 RGB image.
func BenchmarkVGGForward(b *testing.B) {
	env := benchEnvironment(b)
	img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Net.Probs(img)
	}
}

// BenchmarkVGGForward32 measures the same forward on the float32
// snapshot: fused conv+ReLU / dense+ReLU ops over the SSE GEMM core.
func BenchmarkVGGForward32(b *testing.B) {
	env := benchEnvironment(b)
	n32, err := env.Net.ToFloat32()
	if err != nil {
		b.Fatal(err)
	}
	img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n32.Probs(img)
	}
}

// BenchmarkVGGInputGrad measures one loss + input-gradient evaluation, the
// unit of work of every gradient-based attack.
func BenchmarkVGGInputGrad(b *testing.B) {
	env := benchEnvironment(b)
	img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
	loss := nn.CrossEntropy{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Net.LossAndInputGrad(img, gtsrb.ClassSpeed60, loss)
	}
}

// BenchmarkLAP32Apply measures the paper's LAP(32) filter on a 32×32 RGB
// image.
func BenchmarkLAP32Apply(b *testing.B) {
	img := gtsrb.Canonical(gtsrb.ClassStop, 32)
	f := filters.NewLAP(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Apply(img)
	}
}

// BenchmarkLAR3VJP measures the LAR(3) adjoint, the extra per-step cost a
// FAdeML attacker pays to differentiate through the filter.
func BenchmarkLAR3VJP(b *testing.B) {
	rng := mathx.NewRNG(1)
	x := tensor.RandU(rng, 0, 1, 3, 32, 32)
	u := tensor.RandN(rng, 3, 32, 32)
	f := filters.NewLAR(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.VJP(x, u)
	}
}

// BenchmarkFilterApplyBatch measures the batched filter path the serving
// micro-batches and panel sweeps run: a 16-image ApplyBatch (fanned over
// the parallel pool) vs the serial per-image loop it replaces.
func BenchmarkFilterApplyBatch(b *testing.B) {
	rng := mathx.NewRNG(3)
	batch := make([]*tensor.Tensor, 16)
	for i := range batch {
		batch[i] = tensor.RandU(rng, 0, 1, 3, 32, 32)
	}
	for _, spec := range []string{"median(r=1)", "lap(np=32)", "nlm(h=0.1,patch=1,window=3)"} {
		f, err := filters.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				filters.SerialBatch(f, batch)
			}
		})
		b.Run(spec+"/batched", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ApplyBatch(batch)
			}
		})
	}
}

// BenchmarkMatMul measures the 128×128 matmul underlying conv via im2col.
func BenchmarkMatMul(b *testing.B) {
	rng := mathx.NewRNG(2)
	x := tensor.RandN(rng, 128, 128)
	y := tensor.RandN(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkMatMul32 measures the float32 fast-lane GEMM at the same
// shape as BenchmarkMatMul — the pair quantifies the PR-7 speedup.
func BenchmarkMatMul32(b *testing.B) {
	rng := mathx.NewRNG(2)
	x := tensor.RandN(rng, 128, 128).Float32()
	y := tensor.RandN(rng, 128, 128).Float32()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul32(x, y)
	}
}

// BenchmarkRenderSign measures synthetic GTSRB sample generation.
func BenchmarkRenderSign(b *testing.B) {
	rng := mathx.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gtsrb.Render(gtsrb.ClassStop, 32, gtsrb.RandomJitter(rng), rng)
	}
}

// BenchmarkAttackFGSM measures one FGSM adversarial example end to end.
func BenchmarkAttackFGSM(b *testing.B) {
	env := benchEnvironment(b)
	cls := attacks.NetClassifier{Net: env.Net}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	goal := attacks.Goal{Source: sc.Source, Target: sc.Target}
	atk := &attacks.FGSM{Epsilon: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atk.Generate(context.Background(), cls, clean, goal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackOnePixel measures one black-box one-pixel DE attack —
// the query-based workload whose per-generation population scoring runs
// through the batched inference surface.
func BenchmarkAttackOnePixel(b *testing.B) {
	env := benchEnvironment(b)
	cls := attacks.NetClassifier{Net: env.Net}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	goal := attacks.Goal{Source: sc.Source, Target: sc.Target}
	atk := &attacks.OnePixel{Pixels: 1, Population: 10, Generations: 5, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atk.Generate(context.Background(), cls, clean, goal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackFAdeMLBIM measures one filter-aware BIM adversarial
// example through LAP(8) — the paper's core operation.
func BenchmarkAttackFAdeMLBIM(b *testing.B) {
	env := benchEnvironment(b)
	cls := attacks.NetClassifier{Net: env.Net}
	sc := PaperScenarios[0]
	clean := sc.CleanImage(env.Profile.Size)
	goal := attacks.Goal{Source: sc.Source, Target: sc.Target}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa := attacks.NewFAdeML(&attacks.BIM{Epsilon: 0.25, Alpha: 0.02, Steps: 60, EarlyStop: true}, filters.NewLAP(8))
		if _, err := fa.Generate(context.Background(), cls, clean, goal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeThroughput measures the online serving layer on the tiny
// VGG profile: concurrent clients hammering one Server through the full
// TM-II path (acquisition + LAP(32) + network). The batched16 variant
// coalesces requests into micro-batches of up to 16; unbatched serves
// request-at-a-time (MaxBatch 1). Both return bit-identical responses —
// the delta is pure throughput, reported alongside the observed mean
// batch occupancy. batched16_f32 runs the same batched workload on the
// float32 fast lane.
func BenchmarkServeThroughput(b *testing.B) {
	env := benchEnvironment(b)
	acq := NewAcquisition(1.0, 1.0/255, true, 97)
	pipe := NewPipeline(env.Net, NewLAP(32), acq)
	img := gtsrb.Canonical(gtsrb.ClassStop, env.Profile.Size)
	for _, cfg := range []struct {
		name     string
		maxBatch int
		prec     Precision
	}{
		{"batched16", 16, PrecisionFloat64},
		{"unbatched", 1, PrecisionFloat64},
		{"batched16_f32", 16, PrecisionFloat32},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// Cache off (the workload repeats one image) and admission
			// unbounded (32 clients per CPU is deliberate overload): the
			// benchmark measures the batching path, not the survivability
			// layer.
			s := NewServer(pipe, ServeOptions{
				MaxBatch: cfg.maxBatch, MaxWait: 2 * time.Millisecond,
				CacheSize: -1, InteractiveLimit: -1,
			})
			defer s.Close()
			if cfg.prec == PrecisionFloat32 && !s.Float32Available() {
				b.Fatal("float32 lane unavailable")
			}
			ctx := context.Background()
			req := ServeRequest{Images: []*Tensor{img}, TM: TM2, Precision: cfg.prec}
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := s.Do(ctx, req); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(st.MeanBatchOccupancy, "occupancy")
		})
	}
}
