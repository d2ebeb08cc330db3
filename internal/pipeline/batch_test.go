package pipeline

import (
	"math"
	"testing"

	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/tensor"
)

// TestDeliverGroupedBitIdentity pins the mixed-threat-model path the
// serving micro-batches take: per-index TMs, grouped filter batching,
// per-slot results identical to individual Deliver calls.
func TestDeliverGroupedBitIdentity(t *testing.T) {
	net := pipelineNet(t)
	p := New(net, filters.NewLAR(2), DefaultAcquisition(5))
	rng := mathx.NewRNG(92)
	tms := []ThreatModel{TM3, TM1, TM2, TM3, TM2, TM1, TM3}
	xs := make([]*tensor.Tensor, len(tms))
	for i := range xs {
		xs[i] = tensor.RandU(rng, 0, 1, 3, 16, 16)
	}
	got := p.DeliverGrouped(xs, tms)
	for i := range xs {
		if !tensor.EqualWithin(got[i], p.Deliver(xs[i], tms[i]), 0) {
			t.Errorf("DeliverGrouped[%d] (%v) != Deliver", i, tms[i])
		}
	}
}

func TestDeliverGroupedValidation(t *testing.T) {
	net := pipelineNet(t)
	p := New(net, nil, nil)
	img := tensor.Full(0.5, 3, 16, 16)
	for name, fn := range map[string]func(){
		"length mismatch": func() { p.DeliverGrouped([]*tensor.Tensor{img}, nil) },
		"bad tm":          func() { p.DeliverGrouped([]*tensor.Tensor{img}, []ThreatModel{99}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestProbsViewsMatchesProbs re-pins the ProbsViews contract on the new
// grouped delivery path.
func TestProbsViewsMatchesProbs(t *testing.T) {
	net := pipelineNet(t)
	p := New(net, filters.NewLAP(4), DefaultAcquisition(3))
	rng := mathx.NewRNG(93)
	x := tensor.RandU(rng, 0, 1, 3, 16, 16)
	tms := []ThreatModel{TM1, TM3, TM2, TM3}
	views := p.ProbsViews(x, tms...)
	for i, tm := range tms {
		want := p.Probs(x, tm)
		for j := range want {
			if views[i][j] != want[j] {
				t.Fatalf("ProbsViews[%d] (%v) diverged from Probs", i, tm)
			}
		}
	}
}

// TestDeliverIsAttackerModel pins that what reaches the DNN under a
// threat model is exactly the stage AttackerModel names for it: per
// image through Apply, per threat-model group through ApplyBatch, with
// and without acquisition, for a deterministic and a randomized filter.
func TestDeliverIsAttackerModel(t *testing.T) {
	net := pipelineNet(t)
	rng := mathx.NewRNG(94)
	xs := make([]*tensor.Tensor, 4)
	for i := range xs {
		xs[i] = tensor.RandU(rng, 0, 1, 3, 16, 16)
	}
	same := func(a, b *tensor.Tensor) bool {
		ad, bd := a.Data(), b.Data()
		if len(ad) != len(bd) {
			return false
		}
		for i := range ad {
			if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
				return false
			}
		}
		return true
	}
	for _, flt := range []filters.Filter{filters.NewLAP(8), filters.NewRandNoise(0.05, 7)} {
		for _, acq := range []*Acquisition{nil, DefaultAcquisition(13)} {
			p := New(net, flt, acq)
			for _, tm := range []ThreatModel{TM1, TM2, TM3} {
				stage := p.AttackerModel(tm)
				tms := make([]ThreatModel, len(xs))
				for i := range tms {
					tms[i] = tm
				}
				grouped := p.DeliverGrouped(xs, tms)
				batched := stage.ApplyBatch(xs)
				for i, x := range xs {
					if !same(p.Deliver(x, tm), stage.Apply(x)) {
						t.Errorf("%s acq=%v %v: Deliver[%d] != AttackerModel.Apply", flt.Name(), acq != nil, tm, i)
					}
					if !same(grouped[i], batched[i]) {
						t.Errorf("%s acq=%v %v: DeliverGrouped[%d] != AttackerModel.ApplyBatch", flt.Name(), acq != nil, tm, i)
					}
				}
			}
		}
	}
}
