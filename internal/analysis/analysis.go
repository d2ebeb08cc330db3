// Package analysis implements the paper's Section III analysis
// methodology: the Eq. 2 cost function comparing classification
// probabilities across threat models, and the Fig. 3 comparison of one
// adversarial example under TM I and TM II/III.
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/attacks"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Eq2Cost is the paper's Eq. 2: the summed top-k probability mass under
// Threat Model I minus that under Threat Model II/III. It delegates to the
// attacks package's canonical implementation (which the FAdeML trace also
// uses).
func Eq2Cost(probsI, probsII []float64, k int) float64 {
	return attacks.Eq2Cost(probsI, probsII, k)
}

// Comparison is the outcome of running one adversarial example through
// the pipeline under TM I and one of TM II/III — step 4 of the paper's
// Fig. 3 methodology.
type Comparison struct {
	// AttackName and FilterName identify the configuration.
	AttackName, FilterName string
	// Source and Target are the scenario classes.
	Source, Target int
	// CleanPred/CleanConf describe the clean image through the deployed
	// (filtered) pipeline.
	CleanPred int
	CleanConf float64
	// TM1Pred/TM1Conf describe the adversarial image under TM I.
	TM1Pred int
	TM1Conf float64
	// TMXPred/TMXConf describe the adversarial image under TM II or III.
	TMX     pipeline.ThreatModel
	TMXPred int
	TMXConf float64
	// Cost is Eq. 2 between the TM I and TM II/III probability vectors.
	Cost float64
	// Neutralized reports whether filtering reverted the prediction to
	// the source class while TM I had achieved the target.
	Neutralized bool
	// SurvivedFilter reports whether the targeted misclassification held
	// under TM II/III.
	SurvivedFilter bool
}

// Compare runs the Fig. 3 methodology for one adversarial example: clean
// baseline, TM I inference, TM II/III inference, Eq. 2 cost.
func Compare(p *pipeline.Pipeline, clean, adv *tensor.Tensor, source, target int, tmx pipeline.ThreatModel, attackName string) Comparison {
	if tmx != pipeline.TM2 && tmx != pipeline.TM3 {
		panic(fmt.Sprintf("analysis: Compare wants TM2 or TM3, got %v", tmx))
	}
	// All three pipeline views (clean under TM-II delivery, adversarial
	// under TM-I and TM-II/III) score through one batched forward pass;
	// rows are bit-identical to separate Probs calls.
	views := p.Net.ProbsBatch([]*tensor.Tensor{
		p.Deliver(clean, pipeline.TM2),
		p.Deliver(adv, pipeline.TM1),
		p.Deliver(adv, tmx),
	})
	cleanProbs, probsI, probsX := views[0], views[1], views[2]

	cleanPred := mathx.ArgMax(cleanProbs)
	tm1Pred := mathx.ArgMax(probsI)
	tmxPred := mathx.ArgMax(probsX)

	return Comparison{
		AttackName:     attackName,
		FilterName:     p.Filter.Name(),
		Source:         source,
		Target:         target,
		CleanPred:      cleanPred,
		CleanConf:      cleanProbs[cleanPred],
		TM1Pred:        tm1Pred,
		TM1Conf:        probsI[tm1Pred],
		TMX:            tmx,
		TMXPred:        tmxPred,
		TMXConf:        probsX[tmxPred],
		Cost:           Eq2Cost(probsI, probsX, 5),
		Neutralized:    tm1Pred == target && tmxPred == source,
		SurvivedFilter: tmxPred == target,
	}
}

// String renders the comparison as a single report line.
func (c Comparison) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s | %s | %d→%d | clean %d@%.2f | TM-I %d@%.2f | %v %d@%.2f | cost %+.3f",
		c.AttackName, c.FilterName, c.Source, c.Target,
		c.CleanPred, c.CleanConf, c.TM1Pred, c.TM1Conf, c.TMX, c.TMXPred, c.TMXConf, c.Cost)
	switch {
	case c.SurvivedFilter:
		sb.WriteString(" | SURVIVED")
	case c.Neutralized:
		sb.WriteString(" | NEUTRALIZED")
	}
	return sb.String()
}
