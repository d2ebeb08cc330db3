package pipeline

import (
	"sync"
	"testing"

	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// TestTM2DeliveryConcurrentDeterminism pins the acquisition bugfix: TM-II
// delivery used to advance a shared RNG, so concurrent callers raced and
// results depended on interleaving. Delivery must now be a pure function —
// many goroutines hammering Deliver(TM2) on one shared pipeline have to
// produce exactly the serial run's tensors. Run with -race.
func TestTM2DeliveryConcurrentDeterminism(t *testing.T) {
	net := pipelineNet(t)
	p := New(net, filters.NewLAP(8), DefaultAcquisition(42))

	classes := []int{gtsrb.ClassStop, gtsrb.ClassSpeed60, gtsrb.ClassNoEntry}
	var imgs []*tensor.Tensor
	for _, c := range classes {
		img := gtsrb.Canonical(c, 16)
		imgs = append(imgs, img)
		dim := img.Clone()
		dim.ScaleInPlace(0.9)
		imgs = append(imgs, dim)
	}

	serial := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		serial[i] = p.Deliver(img, TM2)
	}

	const goroutines, reps = 8, 5
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				// Vary the visit order per goroutine so interleavings differ.
				for k := range imgs {
					i := (k + g + r) % len(imgs)
					got := p.Deliver(imgs[i], TM2)
					if !tensor.EqualWithin(got, serial[i], 0) {
						errs <- "concurrent TM2 delivery differs from serial run"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTM2ProbsBatchConcurrentDeterminism runs full TM-II inference — the
// batched TM-II stage then one batched forward, on per-worker network
// clones sharing one Acquisition — from many goroutines and asserts every
// probability vector is bit-identical to the serial single-image path.
func TestTM2ProbsBatchConcurrentDeterminism(t *testing.T) {
	net := pipelineNet(t)
	filter := filters.NewLAP(8)
	acq := DefaultAcquisition(7)
	p := New(net, filter, acq)

	imgs := []*tensor.Tensor{
		gtsrb.Canonical(gtsrb.ClassStop, 16),
		gtsrb.Canonical(gtsrb.ClassSpeed60, 16),
		gtsrb.Canonical(gtsrb.ClassNoEntry, 16),
	}
	serial := make([][]float64, len(imgs))
	for i, img := range imgs {
		serial[i] = p.Probs(img, TM2)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		// Each worker owns a clone of the network but shares the filter and
		// the acquisition stage — exactly the serving-layer topology.
		wp := New(net.Clone(), filter, acq)
		wg.Add(1)
		go func(wp *Pipeline) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				rows := wp.Net.ProbsBatch(wp.AttackerModel(TM2).ApplyBatch(imgs))
				for i, row := range rows {
					for j, v := range row {
						if v != serial[i][j] {
							errs <- "concurrent batched TM2 inference differs from serial Probs"
							return
						}
					}
				}
			}
		}(wp)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestAcquisitionApplyIsPure pins the semantic of the fix: capturing the
// same image twice through one Acquisition yields bit-identical output
// (the noise stream depends on seed + content, not call history), while
// different images and different seeds still decorrelate the noise.
func TestAcquisitionApplyIsPure(t *testing.T) {
	acq := NewAcquisition(1, 0.02, false, 9)
	img := gtsrb.Canonical(gtsrb.ClassStop, 16)
	a := acq.Apply(img)
	b := acq.Apply(img)
	if !tensor.EqualWithin(a, b, 0) {
		t.Fatal("repeated Apply of the same image differs")
	}
	other := img.Clone()
	other.Data()[0] += 1e-9
	c := acq.Apply(other)
	if tensor.EqualWithin(a, c, 0) {
		t.Fatal("noise stream failed to decorrelate across distinct images")
	}
}

func TestParseThreatModel(t *testing.T) {
	ok := map[string]ThreatModel{
		"1": TM1, "2": TM2, "3": TM3,
		"tm1": TM1, "TM2": TM2, "tm3": TM3,
		"TM-I": TM1, "tm-ii": TM2, "TM-III": TM3,
		" 2 ": TM2, "iii": TM3,
	}
	for s, want := range ok {
		got, err := ParseThreatModel(s)
		if err != nil || got != want {
			t.Errorf("ParseThreatModel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "0", "4", "tm4", "TM-IV", "two"} {
		if got, err := ParseThreatModel(s); err == nil {
			t.Errorf("ParseThreatModel(%q) accepted as %v", s, got)
		}
	}
	if !TM2.Valid() || ThreatModel(7).Valid() || ThreatModel(0).Valid() {
		t.Error("ThreatModel.Valid wrong")
	}
}
