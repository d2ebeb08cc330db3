package experiments

import (
	"context"
	"fmt"

	"repro/internal/attacks"
	"repro/internal/filters"
	"repro/internal/train"
)

// Fig6Cell is one bar of the paper's Fig. 6: top-5 accuracy of the whole
// network over the test stream when every image carries one scenario's
// targeted perturbation (Threat Model I, no filter).
type Fig6Cell struct {
	Scenario   Scenario
	AttackName string
	Top1, Top5 float64
}

// Fig6Result reproduces Fig. 6.
type Fig6Result struct {
	ProfileName string
	// Baseline is the unattacked accuracy over the same subset.
	Baseline train.Metrics
	// Samples is the evaluated subset size.
	Samples int
	Cells   []Fig6Cell
}

// RunFig6 measures top-5 accuracy under each attack × scenario over the
// profile's attack-eval subset (nil attackNames = the paper trio): one
// craftStream grid with every (scenario, image) on the case axis, then a
// serial reduction per (attack, scenario).
func RunFig6(ctx context.Context, env *Env, attackNames []string) (*Fig6Result, error) {
	if attackNames == nil {
		attackNames = attacks.PaperAttacks
	}
	atks, err := buildAll(attackNames, buildFig6Attack)
	if err != nil {
		return nil, err
	}
	ds := env.attackSubset()
	n := ds.Len()
	res := &Fig6Result{
		ProfileName: env.Profile.Name,
		Baseline:    train.Evaluate(env.workerNets(gridWorkers(n)), ds, nil),
		Samples:     n,
	}
	advs, err := craftStream(ctx, env, PaperScenarios, ds, atks, []filters.Filter{filters.Identity{}}, blind)
	if err != nil {
		return nil, fmt.Errorf("fig6 %w", err)
	}
	for a, name := range attackNames {
		for s, sc := range PaperScenarios {
			set := advs[(a*len(PaperScenarios)+s)*n:][:n]
			m := train.Evaluate(env.workerNets(gridWorkers(n)), newSliceDataset(set, ds), nil)
			res.Cells = append(res.Cells, Fig6Cell{
				Scenario:   sc,
				AttackName: attackLabel(name),
				Top1:       m.Top1,
				Top5:       m.Top5,
			})
		}
	}
	return res, nil
}

// Table renders the figure as a grid: rows = attacks (plus the no-attack
// baseline), columns = scenarios, cells = top-5 accuracy.
func (r *Fig6Result) Table() string {
	headers := []string{"Attack"}
	for _, sc := range PaperScenarios {
		headers = append(headers, fmt.Sprintf("Scen.%d", sc.ID))
	}
	t := NewTable(
		fmt.Sprintf("Fig. 6 — top-5 accuracy under attack, TM-I, no filter (%d samples, profile %s)",
			r.Samples, r.ProfileName),
		headers...)

	row := []any{"No Attack"}
	for range PaperScenarios {
		row = append(row, pct(r.Baseline.Top5))
	}
	t.AddRow(row...)

	byAttack := map[string][]Fig6Cell{}
	var order []string
	for _, c := range r.Cells {
		if _, ok := byAttack[c.AttackName]; !ok {
			order = append(order, c.AttackName)
		}
		byAttack[c.AttackName] = append(byAttack[c.AttackName], c)
	}
	for _, name := range order {
		row := []any{name}
		for _, sc := range PaperScenarios {
			val := "-"
			for _, c := range byAttack[name] {
				if c.Scenario.ID == sc.ID {
					val = pct(c.Top5)
				}
			}
			row = append(row, val)
		}
		t.AddRow(row...)
	}
	return t.String()
}

// MaxDrop returns the largest top-5 accuracy drop (baseline minus attacked)
// across all cells — the paper reports "up to 10%".
func (r *Fig6Result) MaxDrop() float64 {
	maxDrop := 0.0
	for _, c := range r.Cells {
		if d := r.Baseline.Top5 - c.Top5; d > maxDrop {
			maxDrop = d
		}
	}
	return maxDrop
}
