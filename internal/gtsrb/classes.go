// Package gtsrb is a procedural substitute for the German Traffic Sign
// Recognition Benchmark used by the FAdeML paper. It renders all 43 GTSRB
// class ids as synthetic sign images (correct shape taxonomy, digit and
// arrow glyphs, per-sample jitter) so the experiments have a 43-class
// recognition task with the paper's five payload scenarios, without the
// real camera dataset. The substitution is listed under "Departures from
// the paper" in ARCHITECTURE.md.
package gtsrb

// NumClasses is the GTSRB class count.
const NumClasses = 43

// Canonical GTSRB class ids referenced by the paper's attack scenarios.
const (
	ClassSpeed20    = 0
	ClassSpeed30    = 1
	ClassSpeed50    = 2
	ClassSpeed60    = 3
	ClassSpeed70    = 4
	ClassSpeed80    = 5
	ClassEndSpeed80 = 6
	ClassSpeed100   = 7
	ClassSpeed120   = 8
	ClassNoPassing  = 9
	ClassYield      = 13
	ClassStop       = 14
	ClassNoEntry    = 17
	ClassTurnRight  = 33
	ClassTurnLeft   = 34
	ClassAheadOnly  = 35
)

// Shape is the sign silhouette family a class belongs to.
type Shape int

// Sign silhouette families of the GTSRB taxonomy.
const (
	ShapeProhibitory   Shape = iota // red-ring circle, white interior
	ShapeDerestriction              // white circle with gray diagonal band
	ShapeMandatory                  // blue disk with white glyph
	ShapeWarning                    // red-bordered triangle, point up
	ShapeYield                      // red-bordered triangle, point down
	ShapePriority                   // yellow diamond
	ShapeStop                       // red octagon
	ShapeNoEntry                    // red disk with white horizontal bar
)

// ClassInfo describes one GTSRB class.
type ClassInfo struct {
	ID    int
	Name  string
	Shape Shape
	// SpeedDigits holds the numeral drawn for speed-limit classes ("60"),
	// empty otherwise.
	SpeedDigits string
}

var classes = [NumClasses]ClassInfo{
	{0, "Speed limit (20km/h)", ShapeProhibitory, "20"},
	{1, "Speed limit (30km/h)", ShapeProhibitory, "30"},
	{2, "Speed limit (50km/h)", ShapeProhibitory, "50"},
	{3, "Speed limit (60km/h)", ShapeProhibitory, "60"},
	{4, "Speed limit (70km/h)", ShapeProhibitory, "70"},
	{5, "Speed limit (80km/h)", ShapeProhibitory, "80"},
	{6, "End of speed limit (80km/h)", ShapeDerestriction, "80"},
	{7, "Speed limit (100km/h)", ShapeProhibitory, "100"},
	{8, "Speed limit (120km/h)", ShapeProhibitory, "120"},
	{9, "No passing", ShapeProhibitory, ""},
	{10, "No passing for vehicles over 3.5 tons", ShapeProhibitory, ""},
	{11, "Right-of-way at the next intersection", ShapeWarning, ""},
	{12, "Priority road", ShapePriority, ""},
	{13, "Yield", ShapeYield, ""},
	{14, "Stop", ShapeStop, ""},
	{15, "No vehicles", ShapeProhibitory, ""},
	{16, "Vehicles over 3.5 tons prohibited", ShapeProhibitory, ""},
	{17, "No entry", ShapeNoEntry, ""},
	{18, "General caution", ShapeWarning, ""},
	{19, "Dangerous curve to the left", ShapeWarning, ""},
	{20, "Dangerous curve to the right", ShapeWarning, ""},
	{21, "Double curve", ShapeWarning, ""},
	{22, "Bumpy road", ShapeWarning, ""},
	{23, "Slippery road", ShapeWarning, ""},
	{24, "Road narrows on the right", ShapeWarning, ""},
	{25, "Road work", ShapeWarning, ""},
	{26, "Traffic signals", ShapeWarning, ""},
	{27, "Pedestrians", ShapeWarning, ""},
	{28, "Children crossing", ShapeWarning, ""},
	{29, "Bicycles crossing", ShapeWarning, ""},
	{30, "Beware of ice/snow", ShapeWarning, ""},
	{31, "Wild animals crossing", ShapeWarning, ""},
	{32, "End of all speed and passing limits", ShapeDerestriction, ""},
	{33, "Turn right ahead", ShapeMandatory, ""},
	{34, "Turn left ahead", ShapeMandatory, ""},
	{35, "Ahead only", ShapeMandatory, ""},
	{36, "Go straight or right", ShapeMandatory, ""},
	{37, "Go straight or left", ShapeMandatory, ""},
	{38, "Keep right", ShapeMandatory, ""},
	{39, "Keep left", ShapeMandatory, ""},
	{40, "Roundabout mandatory", ShapeMandatory, ""},
	{41, "End of no passing", ShapeDerestriction, ""},
	{42, "End of no passing for vehicles over 3.5 tons", ShapeDerestriction, ""},
}

// Class returns the descriptor for a class id; it panics outside [0, 43).
func Class(id int) ClassInfo {
	if id < 0 || id >= NumClasses {
		panic("gtsrb: class id out of range")
	}
	return classes[id]
}

// ClassName returns the human-readable name of a class id.
func ClassName(id int) string { return Class(id).Name }

// AllClasses returns descriptors for all 43 classes in id order.
func AllClasses() []ClassInfo {
	out := make([]ClassInfo, NumClasses)
	copy(out, classes[:])
	return out
}
