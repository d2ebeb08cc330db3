package attacks

import (
	"context"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// OnePixel is Su et al.'s black-box attack: differential evolution over a
// handful of (x, y, r, g, b) pixel substitutions, using only forward
// queries — no gradients. A library extension beyond the paper's trio.
//
// The evolution is the textbook synchronous DE/rand/1 scheme: every
// generation builds its full trial population from the generation-start
// population, scores all trials, then applies selection. Building the
// whole population up front is what lets the fitness evaluation run as
// one batched forward pass per generation (via LogitsBatcher) instead of
// Population separate batch-of-1 queries; the batched and per-image
// scoring paths are bit-identical (same queries, same adversarial
// output, same seed).
type OnePixel struct {
	// Pixels is the number of pixels the attack may replace.
	Pixels int
	// Population and Generations control the differential evolution.
	Population, Generations int
	// Seed drives the evolution deterministically.
	Seed uint64
}

// NewOnePixel constructs the attack with 1 pixel, population 40 and
// 30 generations.
func NewOnePixel() *OnePixel {
	return &OnePixel{Pixels: 1, Population: 40, Generations: 30, Seed: 7}
}

// Name implements Attack.
func (o *OnePixel) Name() string { return spec.Format("onepixel", o.Params()) }

// Params implements Configurable.
func (o *OnePixel) Params() []Param {
	return []Param{
		spec.Int("pixels", "pixels the attack may replace", &o.Pixels, 1, 64),
		spec.Int("pop", "differential-evolution population size", &o.Population, 4, 1024),
		spec.Int("gens", "differential-evolution generations", &o.Generations, 1, maxSteps),
		spec.Uint("seed", "evolution seed", &o.Seed),
	}
}

// candidate is one DE individual: Pixels × (y, x, r, g, b) in [0,1] genes.
type opCandidate []float64

// Generate implements Attack. Works for targeted and untargeted goals.
// Budget granularity is one DE generation (Population queries per check).
func (o *OnePixel) Generate(ctx context.Context, c Classifier, x *tensor.Tensor, goal Goal) (*Result, error) {
	if err := goal.Validate(c); err != nil {
		return nil, err
	}
	if x.Dims() != 3 {
		return nil, fmt.Errorf("attacks: OnePixel needs a CHW image, got %v", x.Shape())
	}
	if o.Pixels <= 0 || o.Population <= 3 || o.Generations <= 0 {
		return nil, fmt.Errorf("attacks: OnePixel parameters out of range")
	}
	ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if ch != 3 && ch != 1 {
		return nil, fmt.Errorf("attacks: OnePixel supports 1- or 3-channel images, got %d", ch)
	}
	genes := o.Pixels * (2 + ch)
	e := begin(ctx, o.Name())
	rng := mathx.NewRNG(o.Seed)

	// forEachPixel decodes each of cand's pixel genes to its clamped image
	// coordinate exactly once, so the perturb and restore passes below can
	// never disagree about which pixels were touched.
	forEachPixel := func(cand opCandidate, visit func(base, py, px int)) {
		for p := 0; p < o.Pixels; p++ {
			base := p * (2 + ch)
			py := int(mathx.Clamp01(cand[base]) * float64(h-1))
			px := int(mathx.Clamp01(cand[base+1]) * float64(w-1))
			visit(base, py, px)
		}
	}
	// writePixels perturbs img in place per cand; restorePixels puts the
	// original values back. One scratch image per population slot (cloned
	// once, perturbed and restored around every scoring pass) replaces the
	// historical full-image clone per fitness query — thousands of image
	// copies per attack.
	writePixels := func(img *tensor.Tensor, cand opCandidate) {
		forEachPixel(cand, func(base, py, px int) {
			for cc := 0; cc < ch; cc++ {
				img.Set(mathx.Clamp01(cand[base+2+cc]), cc, py, px)
			}
		})
	}
	restorePixels := func(img *tensor.Tensor, cand opCandidate) {
		forEachPixel(cand, func(_, py, px int) {
			for cc := 0; cc < ch; cc++ {
				img.Set(x.At(cc, py, px), cc, py, px)
			}
		})
	}
	slots := make([]*tensor.Tensor, o.Population)
	for i := range slots {
		slots[i] = x.Clone()
	}
	// scoreAll evaluates every candidate's fitness — probability of the
	// target class for targeted goals, negative source-class probability
	// for untargeted — in one batched forward pass over the slot images.
	fitDst := make([]float64, o.Population)
	scoreAll := func(cands []opCandidate, fit []float64) {
		for i, cand := range cands {
			writePixels(slots[i], cand)
		}
		probs := ProbsBatch(c, slots[:len(cands)])
		e.query(len(cands))
		for i := range cands {
			if goal.IsTargeted() {
				fit[i] = probs[i][goal.Target]
			} else {
				fit[i] = -probs[i][goal.Source]
			}
		}
		for i, cand := range cands {
			restorePixels(slots[i], cand)
		}
	}

	if e.halt() {
		// Cancelled before the population was ever scored: best-so-far is
		// the unperturbed image.
		return e.finish(c, x, x.Clone(), goal, 0), nil
	}

	pop := make([]opCandidate, o.Population)
	fit := make([]float64, o.Population)
	for i := range pop {
		pop[i] = make(opCandidate, genes)
		for g := range pop[i] {
			pop[i][g] = rng.Float64()
		}
	}
	scoreAll(pop, fit)

	trials := make([]opCandidate, o.Population)
	for i := range trials {
		trials[i] = make(opCandidate, genes)
	}
	gens := 0
	for gen := 0; gen < o.Generations && !e.halt(); gen++ {
		gens = gen + 1
		for i := range pop {
			// DE/rand/1 mutation with F=0.5 and full crossover, donors
			// drawn from the generation-start population.
			a, b, cc := rng.IntN(o.Population), rng.IntN(o.Population), rng.IntN(o.Population)
			for g := range trials[i] {
				trials[i][g] = mathx.Clamp01(pop[a][g] + 0.5*(pop[b][g]-pop[cc][g]))
			}
		}
		scoreAll(trials, fitDst)
		for i := range pop {
			if fitDst[i] > fit[i] {
				copy(pop[i], trials[i])
				fit[i] = fitDst[i]
			}
		}
		e.iterDone()
	}
	best := mathx.ArgMax(fit)
	adv := x.Clone()
	writePixels(adv, pop[best])
	return e.finish(c, x, adv, goal, gens), nil
}
