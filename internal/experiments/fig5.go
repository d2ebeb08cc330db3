package experiments

import (
	"context"
	"fmt"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// The figure runners' attack budgets, as spec strings tabled under
// "Figure budgets" in ATTACKS.md. Each runner looks a name up in its own
// map; any other name resolves through attacks.Parse, so scenario and
// sweep configurations can name parameterized attacks like
// "pgd(eps=0.06,steps=10)" wherever a library name is accepted.
var (
	// blindBudgets serve Fig 5 and Fig 7: slightly larger than the
	// library defaults so the targeted payloads of the scenario table
	// succeed reliably on the scaled VGG.
	blindBudgets = map[string]string{
		"fgsm":  "fgsm(eps=0.05)",
		"bim":   "bim(eps=0.1,alpha=0.008,steps=40,early=true)",
		"lbfgs": "lbfgs(c=10,csteps=5,iters=30)",
		"pgd":   "pgd(eps=0.1,alpha=0.01,steps=40,restarts=2,seed=11)",
		"cw":    "cw(kappa=0,steps=100,lr=0.05,c=5,search=3)",
	}
	// awareBudgets serve the FAdeML wrapper of the Fig 9 sweeps. A
	// filter-aware attacker spends a larger budget than the filter-blind
	// baseline: smoothing attenuates whatever perturbation reaches the
	// DNN, so equal-budget comparisons would understate the attack the
	// paper describes (which explicitly notes FAdeML's larger accuracy
	// impact). The optimization-based attacks (L-BFGS, C&W) need little
	// inflation — their real-valued noise already concentrates in
	// filter-surviving low frequencies.
	awareBudgets = map[string]string{
		"fgsm":  "fgsm(eps=0.25)",
		"bim":   "bim(eps=0.25,alpha=0.02,steps=60,early=true)",
		"lbfgs": "lbfgs(c=5,csteps=6,iters=50)",
		"pgd":   "pgd(eps=0.25,alpha=0.025,steps=60,restarts=2,seed=11)",
		"cw":    "cw(kappa=0,steps=150,lr=0.05,c=5,search=3)",
	}
	// fig6Budgets serve the whole-stream attacks of Fig 6 at the classic
	// imperceptible 8/255 budget, which is the library default of fgsm
	// and bim. The paper reports the attacks cost "up to 10%" of overall
	// top-5 accuracy — a statement about imperceptible perturbations
	// applied to every input, not the larger per-payload budgets of
	// Fig 5. A high distortion weight keeps the L-BFGS noise comparably
	// small; pgd and cw keep their Fig 5 budgets.
	fig6Budgets = map[string]string{
		"lbfgs": "lbfgs(c=40,csteps=3,iters=25)",
		"pgd":   blindBudgets["pgd"],
		"cw":    blindBudgets["cw"],
	}

	buildAttack            = budgeted(blindBudgets)
	buildFilterAwareAttack = budgeted(awareBudgets)
	buildFig6Attack        = budgeted(fig6Budgets)
)

// budgeted returns the attack builder for one figure's budget map.
func budgeted(budgets map[string]string) func(string) (attacks.Attack, error) {
	return func(name string) (attacks.Attack, error) {
		if spec, ok := budgets[name]; ok {
			name = spec
		}
		return attacks.Parse(name)
	}
}

// attackLabel maps library names to the paper's figure labels.
func attackLabel(name string) string {
	switch name {
	case "lbfgs":
		return "L-BFGS"
	case "fgsm":
		return "FGSM"
	case "bim":
		return "BIM"
	default:
		return name
	}
}

// Fig5Row is one cell of the paper's Fig. 5: a targeted attack on one
// scenario evaluated under Threat Model I.
type Fig5Row struct {
	Scenario   Scenario
	AttackName string
	// Clean prediction of the source image (class id + confidence).
	CleanPred int
	CleanConf float64
	// Adversarial prediction under TM I.
	AdvPred int
	AdvConf float64
	// Success means the targeted misclassification was achieved.
	Success bool
	// NoiseLInf is the perturbation's max-norm (imperceptibility proxy).
	NoiseLInf float64
}

// Fig5Result reproduces Fig. 5: every attack forces its scenario payload
// under Threat Model I.
type Fig5Result struct {
	ProfileName string
	Rows        []Fig5Row
}

// RunFig5 attacks each scenario's canonical source image with each attack
// (nil attackNames = the paper's L-BFGS/FGSM/BIM trio) and records the
// TM-I outcome: an attack × scenario grid on core.RunGrid, so rows land in
// attack-major order whatever the worker count.
func RunFig5(ctx context.Context, env *Env, attackNames []string) (*Fig5Result, error) {
	if attackNames == nil {
		attackNames = attacks.PaperAttacks
	}
	atks, err := buildAll(attackNames, buildAttack)
	if err != nil {
		return nil, err
	}
	// Clean predictions are shared across the attack axis of the grid:
	// score all scenario source images in one batched forward up front
	// instead of once per cell (results are bit-identical to per-cell
	// attacks.Predict calls).
	cleanImgs := make([]*tensor.Tensor, len(PaperScenarios))
	for i, sc := range PaperScenarios {
		cleanImgs[i] = sc.CleanImage(env.Profile.Size)
	}
	cleanPreds, cleanConfs := env.Net.PredictBatch(cleanImgs)

	g := core.Grid{Attacks: len(atks), Modes: []attacks.AdaptiveMode{blind}, TMs: 1, Filters: 1, Cases: len(PaperScenarios)}
	rows := make([]Fig5Row, g.Len())
	nets := env.workerNets(gridWorkers(g.Len()))
	err = core.RunGrid(ctx, g, len(nets), func(w int, c core.Cell) (*attacks.Result, error) {
		sc := PaperScenarios[c.Case]
		out, err := craft(ctx, nets[w], filters.Identity{}, atks[c.Attack], blind, cleanImgs[c.Case], sc.goal())
		if err != nil {
			return nil, fmt.Errorf("fig5 %s on %s: %w", attackNames[c.Attack], sc, err)
		}
		return out, nil
	}, func(_ int, c core.Cell, out *attacks.Result) error {
		sc := PaperScenarios[c.Case]
		rows[c.Index] = Fig5Row{
			Scenario:   sc,
			AttackName: attackLabel(attackNames[c.Attack]),
			CleanPred:  cleanPreds[c.Case],
			CleanConf:  cleanConfs[c.Case],
			AdvPred:    out.PredClass,
			AdvConf:    out.Confidence,
			Success:    out.PredClass == sc.Target,
			NoiseLInf:  out.Noise.LInfNorm(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{ProfileName: env.Profile.Name, Rows: rows}, nil
}

// SuccessRate returns the fraction of rows achieving their payload.
func (r *Fig5Result) SuccessRate() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	hits := 0
	for _, row := range r.Rows {
		if row.Success {
			hits++
		}
	}
	return float64(hits) / float64(len(r.Rows))
}

// Table renders the figure in the paper's layout: one row per
// attack × scenario with clean and adversarial predictions.
func (r *Fig5Result) Table() string {
	t := NewTable(
		fmt.Sprintf("Fig. 5 — targeted attacks under Threat Model I (profile %s)", r.ProfileName),
		"Attack", "Scenario", "Clean prediction", "Adversarial prediction", "Hit", "|noise|inf")
	for _, row := range r.Rows {
		t.AddRow(
			row.AttackName,
			fmt.Sprintf("%d: %s", row.Scenario.ID, row.Scenario.Name),
			fmt.Sprintf("%s @ %s", gtsrb.ClassName(row.CleanPred), pct(row.CleanConf)),
			fmt.Sprintf("%s @ %s", gtsrb.ClassName(row.AdvPred), pct(row.AdvConf)),
			map[bool]string{true: "yes", false: "NO"}[row.Success],
			fmt.Sprintf("%.3f", row.NoiseLInf),
		)
	}
	return t.String()
}

// The figures' crafting modes: filter-blind, and filter-aware through
// the cell's filter (FAdeML).
var (
	blind = attacks.AdaptiveMode{Kind: attacks.AdaptiveBlind}
	bpda  = attacks.AdaptiveMode{Kind: attacks.AdaptiveBPDA}
)

// buildAll builds one attack per name. Attacks keep no state between
// Generate calls, so every worker of a grid shares them.
func buildAll(names []string, build func(string) (attacks.Attack, error)) ([]attacks.Attack, error) {
	atks := make([]attacks.Attack, len(names))
	for i, name := range names {
		atk, err := build(name)
		if err != nil {
			return nil, err
		}
		atks[i] = atk
	}
	return atks, nil
}

// craft is every figure's crafting call: core.Craft on a worker's network
// behind filter f, delivered under TM-III. blind ignores f; bpda folds it
// into the attacker's model.
func craft(ctx context.Context, net *nn.Network, f filters.Filter, atk attacks.Attack, mode attacks.AdaptiveMode, img *tensor.Tensor, goal attacks.Goal) (*attacks.Result, error) {
	return core.Craft(ctx, core.Run{Pipeline: pipeline.New(net, f, nil), Attack: atk, Adaptive: mode, TM: pipeline.TM3}, img, goal)
}

// craftStream attacks every image of ds toward each scenario's target —
// the paper perturbs the whole test stream — with every attack, through
// every filter: a grid of atks × mode × flts × (scenario, image) cases
// whose results come back indexed by cell. Blind crafting is shared across
// flts; bpda crafts per filter, except through the identity, which the
// bare attack covers. An image already labelled the target keeps the
// scenario source as its bookkeeping source, so its goal stays valid.
func craftStream(ctx context.Context, env *Env, scs []Scenario, ds *gtsrb.Dataset, atks []attacks.Attack, flts []filters.Filter, mode attacks.AdaptiveMode) ([]*tensor.Tensor, error) {
	n := ds.Len()
	g := core.Grid{Attacks: len(atks), Modes: []attacks.AdaptiveMode{mode}, TMs: 1, Filters: len(flts), Cases: len(scs) * n}
	advs := make([]*tensor.Tensor, g.Len())
	nets := env.workerNets(gridWorkers(g.Len()))
	err := core.RunGrid(ctx, g, len(nets), func(w int, c core.Cell) (*tensor.Tensor, error) {
		sc, f := scs[c.Case/n], flts[c.Filter]
		img, label := ds.Sample(c.Case % n)
		goal := attacks.Goal{Source: label, Target: sc.Target}
		if label == sc.Target {
			goal.Source = sc.Source
		}
		m := mode
		if _, ok := f.(filters.Identity); ok {
			m = blind
		}
		out, err := craft(ctx, nets[w], f, atks[c.Attack], m, img, goal)
		if err != nil {
			return nil, fmt.Errorf("%s on %s, image %d: %w", atks[c.Attack].Name(), sc, c.Case%n, err)
		}
		return out.Adversarial, nil
	}, func(_ int, c core.Cell, adv *tensor.Tensor) error {
		advs[c.Index] = adv
		return nil
	})
	return advs, err
}

// sliceDataset adapts a fixed set of (possibly attacked) images with the
// labels of a source dataset to train.Dataset.
type sliceDataset struct {
	imgs   []*tensor.Tensor
	labels []int
}

func newSliceDataset(imgs []*tensor.Tensor, src *gtsrb.Dataset) *sliceDataset {
	labels := make([]int, src.Len())
	for i := range labels {
		_, labels[i] = src.Sample(i)
	}
	return &sliceDataset{imgs: imgs, labels: labels}
}

func (d *sliceDataset) Len() int { return len(d.imgs) }
func (d *sliceDataset) Sample(i int) (*tensor.Tensor, int) {
	return d.imgs[i], d.labels[i]
}
