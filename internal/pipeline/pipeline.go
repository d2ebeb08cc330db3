package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/filters"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ThreatModel enumerates the paper's Fig. 2 attack scenarios, which differ
// in where the adversarial image enters the inference pipeline.
type ThreatModel int

const (
	// TM1 — the attacker has access to the pre-processing filter's output
	// and writes the perturbed image directly into the DNN input buffer:
	// the DNN consumes the adversarial image unfiltered.
	TM1 ThreatModel = iota + 1
	// TM2 — the attacker manipulates the scene before data acquisition:
	// the adversarial image passes capture (gain, sensor noise,
	// quantization) and then the pre-processing filter.
	TM2
	// TM3 — the attacker perturbs the acquired data before the buffer but
	// has no access to the filter: the adversarial image passes the
	// pre-processing filter only.
	TM3
)

// String implements fmt.Stringer.
func (tm ThreatModel) String() string {
	switch tm {
	case TM1:
		return "TM-I"
	case TM2:
		return "TM-II"
	case TM3:
		return "TM-III"
	default:
		return fmt.Sprintf("ThreatModel(%d)", int(tm))
	}
}

// MarshalText implements encoding.TextMarshaler: a threat model's wire
// form is its String label ("TM-I", "TM-II", "TM-III").
func (tm ThreatModel) MarshalText() ([]byte, error) {
	return []byte(tm.String()), nil
}

// ParseThreatModel converts a user-supplied string — a CLI flag, an HTTP
// request field — into a ThreatModel. It accepts the numeric forms "1",
// "2", "3", the short names "tm1".."tm3" and the paper's roman labels
// "tm-i".."tm-iii" (case-insensitively), and returns an error instead of
// letting a bad value travel to the panic inside Deliver/AttackerModel.
func ParseThreatModel(s string) (ThreatModel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "tm1", "tm-1", "tm-i", "i":
		return TM1, nil
	case "2", "tm2", "tm-2", "tm-ii", "ii":
		return TM2, nil
	case "3", "tm3", "tm-3", "tm-iii", "iii":
		return TM3, nil
	}
	return 0, fmt.Errorf("pipeline: unknown threat model %q (want 1, 2, 3, tm1..tm3 or TM-I..TM-III)", s)
}

// Valid reports whether tm is one of the three defined threat models, so
// callers can reject bad values before they reach Deliver's panic.
func (tm ThreatModel) Valid() bool {
	return tm == TM1 || tm == TM2 || tm == TM3
}

// ModelID is the versioned identity of the network a pipeline runs:
// which registry entry (name@version) the weights came from and the
// SHA-256 of the serialized weight stream. The zero value is an
// anonymous model — a network built in memory that never passed through
// the registry. Serving layers use the identity to route per-request
// model selection, key result caches per version, and echo which model
// answered.
type ModelID struct {
	// Name and Version identify the registry entry ("name@version").
	Name    string
	Version string
	// WeightHash is the lowercase-hex SHA-256 of the serialized weights
	// (nn.Network.WeightHash), the integrity anchor behind the label.
	WeightHash string
}

// IsZero reports whether the identity is the anonymous model.
func (m ModelID) IsZero() bool { return m.Name == "" && m.Version == "" }

// String renders the canonical "name@version" form ("" for anonymous).
func (m ModelID) String() string {
	if m.IsZero() {
		return ""
	}
	if m.Version == "" {
		return m.Name
	}
	return m.Name + "@" + m.Version
}

// HashPrefix returns the first 12 hex digits of the weight hash — the
// short form health probes and logs echo.
func (m ModelID) HashPrefix() string {
	if len(m.WeightHash) < 12 {
		return m.WeightHash
	}
	return m.WeightHash[:12]
}

// Pipeline is the deployed inference system: acquisition, pre-processing
// noise filter, and the DNN behind the input buffer.
type Pipeline struct {
	// Acq models the capture hardware (nil disables acquisition effects).
	Acq *Acquisition
	// Filter is the integrated pre-processing noise filter
	// (filters.Identity{} for a filterless deployment).
	Filter filters.Filter
	// Net is the trained classifier.
	Net *nn.Network
	// Model is the versioned identity of Net (zero for networks that
	// never passed through the model registry).
	Model ModelID

	// net32 is the optional float32 inference snapshot of Net, built by
	// EnableFloat32. It is unexported so the only way to obtain one is the
	// conversion path that keeps it consistent with Net's weights.
	net32 *nn.Net32
}

// New builds a pipeline; filter may be nil for no filtering.
func New(net *nn.Network, filter filters.Filter, acq *Acquisition) *Pipeline {
	if net == nil {
		panic("pipeline: nil network")
	}
	if filter == nil {
		filter = filters.Identity{}
	}
	return &Pipeline{Acq: acq, Filter: filter, Net: net}
}

// NewModel is New for a registry-loaded network: the pipeline carries the
// versioned identity of the weights it runs, so every layer above it can
// report which name@version answered.
func NewModel(id ModelID, net *nn.Network, filter filters.Filter, acq *Acquisition) *Pipeline {
	p := New(net, filter, acq)
	p.Model = id
	return p
}

// Deliver returns the tensor that reaches the DNN when the attacker-
// controlled image x enters the pipeline under the given threat model:
// x through the stage AttackerModel(tm) names.
func (p *Pipeline) Deliver(x *tensor.Tensor, tm ThreatModel) *tensor.Tensor {
	return p.AttackerModel(tm).Apply(x)
}

// DeliverGrouped delivers xs[i] under tms[i] (the slices must have equal
// length), grouping same-threat-model entries so each group's filter
// stage runs as one ApplyBatch — the serving layer's micro-batches mix
// threat models, and this keeps their filtering batched. Element i is
// bit-identical to Deliver(xs[i], tms[i]).
func (p *Pipeline) DeliverGrouped(xs []*tensor.Tensor, tms []ThreatModel) []*tensor.Tensor {
	if len(xs) != len(tms) {
		panic(fmt.Sprintf("pipeline: DeliverGrouped got %d images and %d threat models", len(xs), len(tms)))
	}
	delivered := make([]*tensor.Tensor, len(xs))
	for _, tm := range []ThreatModel{TM1, TM2, TM3} {
		var idx []int
		var group []*tensor.Tensor
		for i := range xs {
			if tms[i] == tm {
				idx = append(idx, i)
				group = append(group, xs[i])
			}
		}
		if len(idx) == 0 {
			continue
		}
		outs := p.AttackerModel(tm).ApplyBatch(group)
		for j, i := range idx {
			delivered[i] = outs[j]
		}
	}
	for i, d := range delivered {
		if d == nil {
			panic(fmt.Sprintf("pipeline: unknown threat model %d", int(tms[i])))
		}
	}
	return delivered
}

// Probs runs the pipeline under a threat model and returns softmax
// probabilities.
func (p *Pipeline) Probs(x *tensor.Tensor, tm ThreatModel) []float64 {
	return p.Net.Probs(p.Deliver(x, tm))
}

// ProbsViews scores one image delivered under several threat models in a
// single batched forward — the Fig. 7/9 panel cells use it to get the
// TM-I and TM-III views of an adversarial image in one network pass.
// Delivery is grouped per threat model through the batched filter path.
func (p *Pipeline) ProbsViews(x *tensor.Tensor, tms ...ThreatModel) [][]float64 {
	xs := make([]*tensor.Tensor, len(tms))
	for i := range tms {
		xs[i] = x
	}
	return p.Net.ProbsBatch(p.DeliverGrouped(xs, tms))
}

// Predict runs the pipeline under a threat model and returns the top
// class with its probability.
func (p *Pipeline) Predict(x *tensor.Tensor, tm ThreatModel) (int, float64) {
	probs := p.Probs(x, tm)
	best := mathx.ArgMax(probs)
	return best, probs[best]
}

// AttackerModel returns the pre-processing stage between the attacker's
// image and the DNN under the given threat model: nothing under TM1,
// acquisition then filter under TM2, the filter alone under TM3. It is
// the one threat-model switch: Deliver and DeliverGrouped run this stage,
// and a filter-aware (FAdeML) attacker folds it into its differentiable
// model.
func (p *Pipeline) AttackerModel(tm ThreatModel) filters.Filter {
	switch tm {
	case TM1:
		return filters.Identity{}
	case TM2:
		if p.Acq != nil {
			return filters.Chain{p.Acq, p.Filter}
		}
		return p.Filter
	case TM3:
		return p.Filter
	default:
		panic(fmt.Sprintf("pipeline: unknown threat model %d", int(tm)))
	}
}
