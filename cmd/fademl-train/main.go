// Command fademl-train generates the synthetic GTSRB dataset, trains the
// profile's VGGNet, reports clean accuracy and writes the weights to the
// cache (and optionally to an explicit path).
//
// The optional -filter flag takes a filter spec ('lap(np=32)',
// 'chain(median(r=1),lar(r=2))', a legacy LAP:32 form, or none) and
// additionally reports clean test accuracy through that pre-processing —
// the quick way to check a candidate defense's accuracy cost (the
// paper's inverted-U) before deploying it.
//
// The trained model can be published into a versioned model registry
// with -register: the registry mints the next version (v1, v2, …),
// records the architecture spec and weight SHA-256 in a manifest, and
// dedupes identical weights. fademl-serve -registry then serves (and
// hot-swaps between) registered versions.
//
// Usage:
//
//	fademl-train [-profile tiny|default|paper] [-cache DIR] [-out FILE]
//	             [-filter 'lap(np=32)'] [-register NAME] [-registry DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	fademl "repro"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	profileName := flag.String("profile", "default", "experiment profile: tiny, default or paper")
	cacheDir := flag.String("cache", "testdata/cache", "weight cache directory (empty to disable)")
	out := flag.String("out", "", "optional explicit weights output path (a sidecar .manifest.json records the architecture and weight hash)")
	filterSpec := flag.String("filter", "", "also report clean accuracy through this filter spec, e.g. 'lap(np=32)' or 'chain(median(r=1),lar(r=2))'")
	registerName := flag.String("register", "", "publish the trained model into the registry under this name (mints the next version)")
	registryDir := flag.String("registry", "testdata/registry", "model registry root for -register")
	flag.Parse()

	// Flag validation happens before any model trains: a bad -filter spec
	// is a usage error, not a wasted training run.
	filter, err := fademl.ParseFilter(*filterSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fademl-train: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	p, err := fademl.ParseProfile(*profileName)
	if err != nil {
		log.Fatal(err)
	}
	env, err := fademl.NewEnv(p, *cacheDir, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile %s: %d train / %d test images, clean top-1 %.2f%%, top-5 %.2f%%\n",
		p.Name, env.TrainSet.Len(), env.TestSet.Len(), 100*env.CleanTop1, 100*env.CleanTop5)
	if filter != nil {
		m := train.Evaluate(train.Clones(env.Net, parallel.Workers()), env.TestSet,
			func(imgs []*tensor.Tensor, _ []int) []*tensor.Tensor {
				return filter.ApplyBatch(imgs)
			})
		fmt.Printf("through %s: top-1 %.2f%%, top-5 %.2f%% (accuracy cost %.2f points top-1)\n",
			filter.Name(), 100*m.Top1, 100*m.Top5, 100*(env.CleanTop1-m.Top1))
	}
	if *out != "" {
		hash, err := registry.SaveFileWithManifest(*out, env.Net, p.VGGArch(), "fademl-train, profile "+p.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("weights written to %s (sha256 %.12s…, sidecar %s)\n", *out, hash, *out+registry.ManifestSuffix)
	}
	if *registerName != "" {
		reg, err := fademl.OpenRegistry(*registryDir)
		if err != nil {
			log.Fatal(err)
		}
		note := fmt.Sprintf("fademl-train, profile %s, clean top-1 %.2f%%", p.Name, 100*env.CleanTop1)
		m, err := reg.Save(*registerName, env.Net, p.VGGArch(), fademl.RegistrySaveOptions{Note: note})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %s@%s in %s (sha256 %.12s…)\n",
			m.Manifest.Name, m.Manifest.Version, *registryDir, m.Manifest.WeightsSHA256)
	}
}
