package analysis

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/train"
)

func TestEq2CostDelegation(t *testing.T) {
	a := []float64{0.8, 0.1, 0.05, 0.03, 0.01, 0.01}
	b := []float64{0.3, 0.3, 0.2, 0.1, 0.05, 0.05}
	if got, want := Eq2Cost(a, b, 5), attacks.Eq2Cost(a, b, 5); got != want {
		t.Fatalf("Eq2Cost delegation broken: %v vs %v", got, want)
	}
}

// Shared small fixture: 2-class pipeline for comparison tests.
var (
	fxOnce sync.Once
	fxNet  *nn.Network
	fxErr  error
)

type remapDS struct {
	inner *gtsrb.Dataset
	remap map[int]int
}

func (d remapDS) Len() int { return d.inner.Len() }
func (d remapDS) Sample(i int) (*tensor.Tensor, int) {
	img, l := d.inner.Sample(i)
	return img, d.remap[l]
}

func fixtureNet(t *testing.T) *nn.Network {
	t.Helper()
	fxOnce.Do(func() {
		ds, err := gtsrb.Generate(gtsrb.Config{
			Size: 16, PerClass: 25, Seed: 21,
			Classes: []int{gtsrb.ClassStop, gtsrb.ClassSpeed60},
		})
		if err != nil {
			fxErr = err
			return
		}
		net, err := nn.TinyCNN(3, 16, 2, mathx.NewRNG(4))
		if err != nil {
			fxErr = err
			return
		}
		remap := map[int]int{gtsrb.ClassStop: 0, gtsrb.ClassSpeed60: 1}
		_, fxErr = train.Fit(net, remapDS{ds, remap}, train.Config{
			Epochs: 12, BatchSize: 10, Schedule: train.ConstantLR(3e-3), Seed: 6,
		})
		fxNet = net
	})
	if fxErr != nil {
		t.Fatalf("analysis fixture: %v", fxErr)
	}
	return fxNet
}

func TestCompareNeutralizationFlow(t *testing.T) {
	net := fixtureNet(t)
	filter := filters.NewLAP(8)
	p := pipeline.New(net, filter, nil)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)

	// Filter-blind attack.
	c := attacks.NetClassifier{Net: net}
	res, err := (&attacks.BIM{Epsilon: 0.08, Alpha: 0.01, Steps: 40, EarlyStop: true}).
		Generate(context.Background(), c, clean, attacks.Goal{Source: 0, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Skip("base attack failed at this budget; comparison not applicable")
	}
	cmp := Compare(p, clean, res.Adversarial, 0, 1, pipeline.TM3, "BIM")
	if cmp.CleanPred != 0 {
		t.Fatalf("clean image misclassified: %+v", cmp)
	}
	if cmp.TM1Pred != 1 {
		t.Fatalf("TM-I did not show the attack: %+v", cmp)
	}
	if !cmp.Neutralized {
		t.Fatalf("filter did not neutralize filter-blind attack: %+v", cmp)
	}
	if cmp.SurvivedFilter {
		t.Fatalf("blind attack should not survive: %+v", cmp)
	}
	line := cmp.String()
	if !strings.Contains(line, "NEUTRALIZED") || !strings.Contains(line, "lap(np=8)") {
		t.Fatalf("report line missing fields: %q", line)
	}
}

func TestCompareSurvivalFlow(t *testing.T) {
	net := fixtureNet(t)
	filter := filters.NewLAP(8)
	p := pipeline.New(net, filter, nil)
	clean := gtsrb.Canonical(gtsrb.ClassStop, 16)

	c := attacks.NetClassifier{Net: net}
	fademl := attacks.NewFAdeML(&attacks.BIM{Epsilon: 0.12, Alpha: 0.012, Steps: 60, EarlyStop: true}, filter)
	res, err := fademl.Generate(context.Background(), c, clean, attacks.Goal{Source: 0, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("FAdeML failed in fixture: %+v", res)
	}
	cmp := Compare(p, clean, res.Adversarial, 0, 1, pipeline.TM3, fademl.Name())
	if !cmp.SurvivedFilter {
		t.Fatalf("FAdeML did not survive in comparison: %+v", cmp)
	}
	if !strings.Contains(cmp.String(), "SURVIVED") {
		t.Fatalf("report line missing SURVIVED: %q", cmp.String())
	}
}

func TestCompareRejectsTM1(t *testing.T) {
	net := fixtureNet(t)
	p := pipeline.New(net, nil, nil)
	img := gtsrb.Canonical(gtsrb.ClassStop, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("Compare accepted TM1 as the filtered model")
		}
	}()
	Compare(p, img, img, 0, 1, pipeline.TM1, "x")
}

func TestCostFieldMatchesManualEq2(t *testing.T) {
	net := fixtureNet(t)
	filter := filters.NewLAR(2)
	p := pipeline.New(net, filter, nil)
	clean := gtsrb.Canonical(gtsrb.ClassSpeed60, 16)
	adv := clean.Clone()
	adv.AddScalar(0.02)
	adv.Clamp01()
	cmp := Compare(p, clean, adv, 1, 0, pipeline.TM3, "manual")
	probsI := p.Probs(adv, pipeline.TM1)
	probsX := p.Probs(adv, pipeline.TM3)
	want := Eq2Cost(probsI, probsX, 5)
	if math.Abs(cmp.Cost-want) > 1e-12 {
		t.Fatalf("comparison cost %v != manual %v", cmp.Cost, want)
	}
}
