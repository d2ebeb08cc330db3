package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/gtsrb"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/train"
)

// Env is a ready experimental setup: the synthetic GTSRB splits and a
// trained VGGNet, everything the figure runners consume.
type Env struct {
	Profile  Profile
	Net      *nn.Network
	TrainSet *gtsrb.Dataset
	TestSet  *gtsrb.Dataset
	// CleanTop1/CleanTop5 record unfiltered clean test accuracy at load
	// time, reported in every figure header.
	CleanTop1, CleanTop5 float64

	// clones caches weight-sharing copies of Net for the worker pool so
	// their scratch buffers amortize across experiment stages.
	clonesMu sync.Mutex
	clones   []*nn.Network
}

// workerNets returns n networks that may run inference and input-gradient
// passes concurrently: slot 0 is the live network, the rest are cached
// weight-sharing clones (grown on demand). Callers must index the slice
// by worker id, never share one entry across goroutines.
func (e *Env) workerNets(n int) []*nn.Network {
	if n < 1 {
		n = 1
	}
	e.clonesMu.Lock()
	defer e.clonesMu.Unlock()
	for len(e.clones) < n-1 {
		e.clones = append(e.clones, e.Net.Clone())
	}
	nets := make([]*nn.Network, n)
	nets[0] = e.Net
	copy(nets[1:], e.clones[:n-1])
	return nets
}

// gridWorkers sizes a worker pool for a grid of n independent tasks.
func gridWorkers(n int) int {
	w := parallel.Workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NewEnv generates the datasets and loads the profile's model from the
// weight cache, training (and caching) it on a miss. cacheDir may be empty
// to disable caching; log may be nil.
func NewEnv(p Profile, cacheDir string, log io.Writer) (*Env, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ds, err := gtsrb.Generate(gtsrb.Config{Size: p.Size, PerClass: p.PerClass, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: dataset: %w", err)
	}
	trainSet, testSet := ds.Split(p.TrainFrac, p.Seed^0x5eed)

	cfg := nn.ScaledVGGConfig(3, p.Size, gtsrb.NumClasses, p.VGGScale)
	net, err := nn.VGGNet(cfg, mathx.NewRNG(p.Seed^0xce11))
	if err != nil {
		return nil, fmt.Errorf("experiments: model: %w", err)
	}

	cached := false
	var cachePath string
	if cacheDir != "" {
		cachePath = filepath.Join(cacheDir, "vgg-"+p.CacheKey()+".weights")
		// Hash-verified load: a missing file is a cache miss (train below);
		// a present file that fails verification — corrupt, truncated, or
		// missing its sidecar manifest — is a hard error, never silently
		// retrained over or silently trusted.
		hash, lerr := registry.LoadFileVerified(cachePath, net)
		switch {
		case lerr == nil:
			cached = true
			if log != nil {
				fmt.Fprintf(log, "loaded cached weights: %s (sha256 %.12s…)\n", cachePath, hash)
			}
		case os.IsNotExist(lerr):
			// Cache miss.
		default:
			return nil, fmt.Errorf("experiments: weight cache: %w (delete %s to retrain)", lerr, cachePath)
		}
	}
	if !cached {
		if log != nil {
			fmt.Fprintf(log, "training %s profile (%d params, %d train images, %d epochs)...\n",
				p.Name, net.ParamCount(), trainSet.Len(), p.Epochs)
		}
		_, err := train.Fit(net, trainSet, train.Config{
			Epochs:    p.Epochs,
			BatchSize: p.BatchSize,
			Schedule:  train.CosineDecay{Base: p.LR, Floor: p.LR / 10, Total: p.Epochs},
			Seed:      p.Seed ^ 0xf17,
			Log:       log,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: training: %w", err)
		}
		if cachePath != "" {
			if err := os.MkdirAll(cacheDir, 0o755); err == nil {
				note := "experiments weight cache, profile " + p.Name
				if _, err := registry.SaveFileWithManifest(cachePath, net, registry.VGGSpec(cfg), note); err != nil && log != nil {
					fmt.Fprintf(log, "warning: weight cache write failed: %v\n", err)
				}
			}
		}
	}

	env := &Env{
		Profile:  p,
		Net:      net,
		TrainSet: trainSet,
		TestSet:  testSet,
	}
	// Evaluate through the env's clone cache so the worker networks (and
	// their scratch buffers) are warm for the figure runners that follow.
	m := train.Evaluate(env.workerNets(gridWorkers(testSet.Len())), testSet, nil)
	if log != nil {
		fmt.Fprintf(log, "clean test accuracy: %s\n", m)
	}
	env.CleanTop1, env.CleanTop5 = m.Top1, m.Top5
	return env, nil
}

// evalSubset returns the test subset used for accuracy sweeps.
func (e *Env) evalSubset() *gtsrb.Dataset {
	return e.TestSet.Subset(evalCap(e.TestSet.Len(), e.Profile.EvalSamples))
}

// attackSubset returns the (smaller) test subset whose images are
// individually attacked in accuracy sweeps.
func (e *Env) attackSubset() *gtsrb.Dataset {
	limit := e.Profile.AttackEvalSamples
	if limit <= 0 {
		limit = e.Profile.EvalSamples
	}
	return e.TestSet.Subset(evalCap(e.TestSet.Len(), limit))
}
