// Package experiments regenerates every table and figure of the paper's
// evaluation section: Fig. 5 (attacks under Threat Model I), Fig. 6 (top-5
// accuracy under attack, no filter), Fig. 7 (classical attacks neutralized
// by LAP/LAR under TM II/III), and Fig. 9 (FAdeML attacks surviving the
// same filters). Each figure has a typed runner returning structured
// results plus a text-table renderer, wired to cmd/fademl-bench; the
// headline rates of Figs. 7 and 9 are pinned by TestPaperHeadline.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/registry"
)

// Profile sizes an experimental run. The paper's full setup (VGGNet with
// 64..512 filters, 39209 GTSRB samples) is far beyond a single-CPU budget;
// profiles keep the topology and methodology identical while scaling
// widths and sample counts (substitution documented in DESIGN.md).
type Profile struct {
	// Name tags the profile in cache paths and reports.
	Name string
	// Size is the square image side; must be a multiple of 32 (VGGNet
	// topology: five 2×2 pools).
	Size int
	// VGGScale divides the paper's filter widths {64,128,256,512,512};
	// 1 reproduces the paper's exact widths.
	VGGScale int
	// PerClass is the number of generated samples per GTSRB class.
	PerClass int
	// TrainFrac splits generation into train/test.
	TrainFrac float64
	// Epochs and BatchSize and LR control training.
	Epochs    int
	BatchSize int
	LR        float64
	// Seed drives dataset generation, initialization and training.
	Seed uint64
	// EvalSamples caps the test images used for accuracy sweeps (forward
	// passes only); 0 means the whole test split.
	EvalSamples int
	// AttackEvalSamples caps the test images that get individually
	// attacked in the Fig. 6/7/9 accuracy curves (gradient passes per
	// image; the expensive part). 0 means EvalSamples.
	AttackEvalSamples int
}

// VGGArch is the registry architecture spec of the profile's VGGNet —
// what NewEnv builds before loading weights into it. Registering an
// env's trained model records this spec in the manifest, so any later
// load can reconstruct the exact topology from the manifest alone.
func (p Profile) VGGArch() registry.ArchSpec {
	return registry.VGGSpec(nn.ScaledVGGConfig(3, p.Size, gtsrb.NumClasses, p.VGGScale))
}

// ParseProfile resolves a user-supplied profile name — the -profile CLI
// flag every binary exposes — returning an error for anything but tiny,
// default or paper (case-insensitively).
func ParseProfile(name string) (Profile, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "tiny":
		return ProfileTiny(), nil
	case "default":
		return ProfileDefault(), nil
	case "paper":
		return ProfilePaper(), nil
	}
	return Profile{}, fmt.Errorf("experiments: unknown profile %q (tiny|default|paper)", name)
}

// ProfileTiny is the continuous-integration profile: smallest VGG widths,
// few samples. Figures keep their qualitative shape; runs finish in
// seconds.
func ProfileTiny() Profile {
	return Profile{
		Name: "tiny", Size: 32, VGGScale: 12,
		PerClass: 18, TrainFrac: 0.75,
		Epochs: 25, BatchSize: 16, LR: 4e-3, Seed: 1234,
		EvalSamples: 60, AttackEvalSamples: 20,
	}
}

// ProfileDefault is the bench profile used for EXPERIMENTS.md: a /8-width
// VGGNet, ~1000 training images, minutes-scale wall time on one core.
func ProfileDefault() Profile {
	return Profile{
		Name: "default", Size: 32, VGGScale: 8,
		PerClass: 36, TrainFrac: 0.78,
		Epochs: 30, BatchSize: 24, LR: 2.5e-3, Seed: 20260611,
		EvalSamples: 200, AttackEvalSamples: 48,
	}
}

// ProfilePaper keeps the paper's exact VGGNet widths (64..512). Training
// it on one CPU core takes hours; provided for full-fidelity replication.
func ProfilePaper() Profile {
	return Profile{
		Name: "paper", Size: 32, VGGScale: 1,
		PerClass: 120, TrainFrac: 0.8,
		Epochs: 12, BatchSize: 32, LR: 1e-3, Seed: 20190325,
		EvalSamples: 0, AttackEvalSamples: 500,
	}
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	if p.Size <= 0 || p.Size%32 != 0 {
		return fmt.Errorf("experiments: profile size %d must be a positive multiple of 32", p.Size)
	}
	if p.VGGScale <= 0 {
		return fmt.Errorf("experiments: VGGScale must be positive")
	}
	if p.PerClass <= 0 || p.TrainFrac <= 0 || p.TrainFrac >= 1 {
		return fmt.Errorf("experiments: bad dataset sizing (PerClass=%d TrainFrac=%v)", p.PerClass, p.TrainFrac)
	}
	if p.Epochs <= 0 || p.BatchSize <= 0 || p.LR <= 0 {
		return fmt.Errorf("experiments: bad training config")
	}
	return nil
}

// rendererVersion invalidates cached weights when the synthetic-GTSRB
// renderer changes (its output is part of the training data).
const rendererVersion = 3

// CacheKey is a deterministic identifier covering every profile field that
// influences the trained model, plus the renderer version.
func (p Profile) CacheKey() string {
	return fmt.Sprintf("%s-r%d-s%d-v%d-n%d-t%g-e%d-b%d-lr%g-seed%d",
		p.Name, rendererVersion, p.Size, p.VGGScale, p.PerClass, p.TrainFrac, p.Epochs, p.BatchSize, p.LR, p.Seed)
}

// evalCap returns n capped to limit (0 = uncapped).
func evalCap(n, limit int) int {
	if limit <= 0 || n < limit {
		return n
	}
	return limit
}
