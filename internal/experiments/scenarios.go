package experiments

import (
	"fmt"

	"repro/internal/attacks"
	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// Scenario is one of the paper's five targeted misclassification payloads
// (Section III-A, item 5).
type Scenario struct {
	// ID is the paper's scenario number (1..5).
	ID int
	// Name is the paper's description of the payload.
	Name string
	// Source and Target are GTSRB class ids.
	Source, Target int
}

// PaperScenarios are the five payloads of the paper's experimental setup:
// (i) stop → 60 km/h, (ii) 30 → 80 km/h, (iii) left → right turn,
// (iv) right → left turn, (v) no entry → 60 km/h.
var PaperScenarios = []Scenario{
	{1, "Stop to 60km/h", gtsrb.ClassStop, gtsrb.ClassSpeed60},
	{2, "30km/h to 80km/h", gtsrb.ClassSpeed30, gtsrb.ClassSpeed80},
	{3, "Left to Right Turn", gtsrb.ClassTurnLeft, gtsrb.ClassTurnRight},
	{4, "Right to Left Turn", gtsrb.ClassTurnRight, gtsrb.ClassTurnLeft},
	{5, "No Entry to 60km/h", gtsrb.ClassNoEntry, gtsrb.ClassSpeed60},
}

// String implements fmt.Stringer.
func (s Scenario) String() string {
	return fmt.Sprintf("Scenario %d: %s", s.ID, s.Name)
}

// CleanImage renders the scenario's canonical source-class image at the
// given resolution — the paper's "reference sample x".
func (s Scenario) CleanImage(size int) *tensor.Tensor {
	return gtsrb.Canonical(s.Source, size)
}

// goal is the scenario's payload as an attack goal.
func (s Scenario) goal() attacks.Goal { return attacks.Goal{Source: s.Source, Target: s.Target} }

// SourceName and TargetName return human-readable class names.
func (s Scenario) SourceName() string { return gtsrb.ClassName(s.Source) }

// TargetName returns the target class name.
func (s Scenario) TargetName() string { return gtsrb.ClassName(s.Target) }
