package gtsrb

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// Config controls synthetic dataset generation.
type Config struct {
	// Size is the square image side in pixels.
	Size int
	// PerClass is the number of samples rendered per class.
	PerClass int
	// Seed makes generation reproducible.
	Seed uint64
	// Classes optionally restricts generation to a subset of class ids;
	// empty means all 43. Labels remain the original GTSRB ids.
	Classes []int
}

// Dataset is an in-memory set of rendered sign images implementing the
// train.Dataset contract.
type Dataset struct {
	imgs   []*tensor.Tensor
	labels []int
	size   int
}

// Generate renders cfg.PerClass jittered samples for every selected class.
// Generation is deterministic: equal configs produce identical datasets.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Size < 8 {
		return nil, fmt.Errorf("gtsrb: image size %d too small", cfg.Size)
	}
	if cfg.PerClass <= 0 {
		return nil, fmt.Errorf("gtsrb: PerClass must be positive, got %d", cfg.PerClass)
	}
	ids := cfg.Classes
	if len(ids) == 0 {
		ids = make([]int, NumClasses)
		for i := range ids {
			ids[i] = i
		}
	}
	for _, id := range ids {
		if id < 0 || id >= NumClasses {
			return nil, fmt.Errorf("gtsrb: class id %d out of range", id)
		}
	}
	rng := mathx.NewRNG(cfg.Seed)
	ds := &Dataset{size: cfg.Size}
	for _, id := range ids {
		// One private stream per class keeps per-class content independent
		// of which other classes are generated.
		classRNG := mathx.NewRNG(cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		for s := 0; s < cfg.PerClass; s++ {
			jit := RandomJitter(classRNG)
			img := Render(id, cfg.Size, jit, classRNG)
			ds.imgs = append(ds.imgs, img)
			ds.labels = append(ds.labels, id)
		}
	}
	// Shuffle so mini-batches mix classes.
	rng.Shuffle(len(ds.imgs), func(i, j int) {
		ds.imgs[i], ds.imgs[j] = ds.imgs[j], ds.imgs[i]
		ds.labels[i], ds.labels[j] = ds.labels[j], ds.labels[i]
	})
	return ds, nil
}

// Len implements train.Dataset.
func (d *Dataset) Len() int { return len(d.imgs) }

// Sample implements train.Dataset. The returned tensor is owned by the
// dataset; callers must clone before mutating.
func (d *Dataset) Sample(i int) (*tensor.Tensor, int) {
	return d.imgs[i], d.labels[i]
}

// Size returns the image side length in pixels.
func (d *Dataset) Size() int { return d.size }

// Split partitions the dataset into train/test subsets with the given
// train fraction, deterministically for a fixed seed. Images are shared,
// not copied.
func (d *Dataset) Split(trainFrac float64, seed uint64) (trainSet, testSet *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("gtsrb: Split fraction %v outside (0,1)", trainFrac))
	}
	n := len(d.imgs)
	perm := mathx.NewRNG(seed).Perm(n)
	cut := int(float64(n) * trainFrac)
	trainSet = &Dataset{size: d.size}
	testSet = &Dataset{size: d.size}
	for i, idx := range perm {
		if i < cut {
			trainSet.imgs = append(trainSet.imgs, d.imgs[idx])
			trainSet.labels = append(trainSet.labels, d.labels[idx])
		} else {
			testSet.imgs = append(testSet.imgs, d.imgs[idx])
			testSet.labels = append(testSet.labels, d.labels[idx])
		}
	}
	return trainSet, testSet
}

// Subset returns a new dataset containing at most n samples taken in order.
func (d *Dataset) Subset(n int) *Dataset {
	if n > len(d.imgs) {
		n = len(d.imgs)
	}
	return &Dataset{imgs: d.imgs[:n], labels: d.labels[:n], size: d.size}
}

// ClassCounts tallies samples per class id.
func (d *Dataset) ClassCounts() map[int]int {
	counts := make(map[int]int)
	for _, l := range d.labels {
		counts[l]++
	}
	return counts
}
