package gtsrb

import (
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

func TestClassTable(t *testing.T) {
	if got := len(AllClasses()); got != NumClasses {
		t.Fatalf("AllClasses len = %d", got)
	}
	for i, c := range AllClasses() {
		if c.ID != i {
			t.Fatalf("class %d has ID %d", i, c.ID)
		}
		if c.Name == "" {
			t.Fatalf("class %d has empty name", i)
		}
	}
	// Scenario-relevant ids point at the expected signs.
	if ClassName(ClassStop) != "Stop" {
		t.Errorf("ClassStop name = %q", ClassName(ClassStop))
	}
	if Class(ClassSpeed60).SpeedDigits != "60" {
		t.Errorf("ClassSpeed60 digits = %q", Class(ClassSpeed60).SpeedDigits)
	}
	if Class(ClassTurnLeft).Shape != ShapeMandatory {
		t.Errorf("turn-left shape = %v", Class(ClassTurnLeft).Shape)
	}
	if Class(ClassNoEntry).Shape != ShapeNoEntry {
		t.Errorf("no-entry shape = %v", Class(ClassNoEntry).Shape)
	}
	if Class(ClassYield).Shape != ShapeYield {
		t.Errorf("yield shape = %v", Class(ClassYield).Shape)
	}
}

func TestClassPanicsOutOfRange(t *testing.T) {
	for _, id := range []int{-1, 43, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Class(%d) did not panic", id)
				}
			}()
			Class(id)
		}()
	}
}

func TestFontGlyphs(t *testing.T) {
	// Every declared glyph must have 7 rows of 5 cells using only 0/1.
	for r, g := range font5x7 {
		for row, line := range g {
			if len(line) != 5 {
				t.Fatalf("glyph %q row %d has %d cells", r, row, len(line))
			}
			for _, ch := range line {
				if ch != '0' && ch != '1' {
					t.Fatalf("glyph %q contains %q", r, ch)
				}
			}
		}
	}
	// The digit 8 is inked at its center; 0 is hollow just left of its
	// diagonal stroke (row 1, col 1).
	if !glyphCoverage('8', 0.5, 0.5) {
		t.Error("digit 8 center not inked")
	}
	if glyphCoverage('0', 0.3, 0.21) {
		t.Error("digit 0 interior inked where it should be hollow")
	}
	// Out-of-range and unknown runes are blank.
	if glyphCoverage('8', -0.1, 0.5) || glyphCoverage('8', 0.5, 1.2) || glyphCoverage('Z', 0.5, 0.5) {
		t.Error("out-of-range or unknown glyph reported ink")
	}
}

func TestTextCoverageLayout(t *testing.T) {
	// "11" has two glyphs with a gap; the gap column must be blank.
	// Total cells = 11; gap occupies cells [5,6).
	gapX := 5.4 / 11
	if textCoverage("11", gapX, 0.5) {
		t.Error("inter-glyph gap is inked")
	}
	if textCoverage("", 0.5, 0.5) {
		t.Error("empty text inked")
	}
}

func TestRenderShapeAndRange(t *testing.T) {
	rng := mathx.NewRNG(1)
	for _, id := range []int{ClassStop, ClassSpeed60, ClassTurnLeft, ClassNoEntry, 12, 13, 18, 32} {
		img := Render(id, 32, RandomJitter(rng), rng)
		if img.Dims() != 3 || img.Dim(0) != 3 || img.Dim(1) != 32 || img.Dim(2) != 32 {
			t.Fatalf("class %d image shape = %v", id, img.Shape())
		}
		if img.Min() < 0 || img.Max() > 1 {
			t.Fatalf("class %d pixels outside [0,1]: [%v, %v]", id, img.Min(), img.Max())
		}
		if !img.AllFinite() {
			t.Fatalf("class %d has non-finite pixels", id)
		}
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a := Canonical(ClassStop, 32)
	b := Canonical(ClassStop, 32)
	if !tensor.EqualWithin(a, b, 0) {
		t.Fatal("Canonical render not deterministic")
	}
}

func TestRenderDistinguishesScenarioClasses(t *testing.T) {
	// The five payload scenarios rely on these pairs being visually distinct.
	pairs := [][2]int{
		{ClassStop, ClassSpeed60},
		{ClassSpeed30, ClassSpeed80},
		{ClassTurnLeft, ClassTurnRight},
		{ClassNoEntry, ClassSpeed60},
	}
	for _, p := range pairs {
		a := Canonical(p[0], 32)
		b := Canonical(p[1], 32)
		diff := tensor.Sub(a, b).L2Norm() / a.L2Norm()
		if diff < 0.05 {
			t.Errorf("classes %d and %d nearly identical (rel diff %v)", p[0], p[1], diff)
		}
	}
}

func TestAllClassesPairwiseDistinct(t *testing.T) {
	imgs := make([]*tensor.Tensor, NumClasses)
	for id := 0; id < NumClasses; id++ {
		imgs[id] = Canonical(id, 32)
	}
	for a := 0; a < NumClasses; a++ {
		for b := a + 1; b < NumClasses; b++ {
			diff := tensor.Sub(imgs[a], imgs[b]).L2Norm()
			if diff < 0.5 {
				t.Errorf("classes %d (%s) and %d (%s) too similar: L2 diff %v",
					a, ClassName(a), b, ClassName(b), diff)
			}
		}
	}
}

func TestStopSignIsRedDominant(t *testing.T) {
	// Sample the band above the white STOP legend: inside the octagon and
	// clear of both the text and the sky background.
	img := Canonical(ClassStop, 32)
	var r, g float64
	for y := 7; y < 10; y++ {
		for x := 11; x < 21; x++ {
			r += img.At(0, y, x)
			g += img.At(1, y, x)
		}
	}
	if r <= g*1.5 {
		t.Fatalf("stop sign interior not red-dominant: r=%v g=%v", r, g)
	}
}

func TestMandatorySignIsBlueDominant(t *testing.T) {
	img := Canonical(ClassAheadOnly, 32)
	plane := 32 * 32
	d := img.Data()
	var r, b float64
	for i := 0; i < plane; i++ {
		r += d[i]
		b += d[2*plane+i]
	}
	if b <= r {
		t.Fatalf("mandatory sign not blue-dominant: r=%v b=%v", r, b)
	}
}

func TestTurnArrowsMirrored(t *testing.T) {
	left := Canonical(ClassTurnLeft, 32)
	right := Canonical(ClassTurnRight, 32)
	// Mirroring the left-turn sign horizontally should approximate the
	// right-turn sign far better than the unmirrored image does.
	mirrored := tensor.New(3, 32, 32)
	for c := 0; c < 3; c++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				mirrored.Set(left.At(c, y, 31-x), c, y, x)
			}
		}
	}
	direct := tensor.Sub(left, right).L2Norm()
	viaMirror := tensor.Sub(mirrored, right).L2Norm()
	if viaMirror >= direct {
		t.Fatalf("mirror symmetry violated: direct=%v mirrored=%v", direct, viaMirror)
	}
}

func TestGenerateDataset(t *testing.T) {
	ds, err := Generate(Config{Size: 16, PerClass: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 43*3 {
		t.Fatalf("dataset len = %d", ds.Len())
	}
	counts := ds.ClassCounts()
	for id := 0; id < NumClasses; id++ {
		if counts[id] != 3 {
			t.Fatalf("class %d count = %d", id, counts[id])
		}
	}
	img, label := ds.Sample(0)
	if label < 0 || label >= NumClasses {
		t.Fatalf("label out of range: %d", label)
	}
	if img.Dim(1) != 16 {
		t.Fatalf("sample size = %v", img.Shape())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Size: 16, PerClass: 2, Seed: 9}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		ai, al := a.Sample(i)
		bi, bl := b.Sample(i)
		if al != bl || !tensor.EqualWithin(ai, bi, 0) {
			t.Fatalf("generation not deterministic at sample %d", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Size: 4, PerClass: 1}); err == nil {
		t.Error("tiny size accepted")
	}
	if _, err := Generate(Config{Size: 16, PerClass: 0}); err == nil {
		t.Error("zero PerClass accepted")
	}
	if _, err := Generate(Config{Size: 16, PerClass: 1, Classes: []int{50}}); err == nil {
		t.Error("bad class id accepted")
	}
}

func TestGenerateSubsetOfClasses(t *testing.T) {
	ds, err := Generate(Config{Size: 16, PerClass: 4, Seed: 2, Classes: []int{ClassStop, ClassSpeed60}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 8 {
		t.Fatalf("subset dataset len = %d", ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		_, l := ds.Sample(i)
		if l != ClassStop && l != ClassSpeed60 {
			t.Fatalf("unexpected label %d", l)
		}
	}
}

func TestSplit(t *testing.T) {
	ds, _ := Generate(Config{Size: 16, PerClass: 4, Seed: 3})
	trainSet, testSet := ds.Split(0.75, 7)
	if trainSet.Len()+testSet.Len() != ds.Len() {
		t.Fatalf("split loses samples: %d + %d != %d", trainSet.Len(), testSet.Len(), ds.Len())
	}
	if trainSet.Len() != int(0.75*float64(ds.Len())) {
		t.Fatalf("train len = %d", trainSet.Len())
	}
	// Deterministic for a fixed seed.
	tr2, _ := ds.Split(0.75, 7)
	for i := 0; i < trainSet.Len(); i++ {
		a, al := trainSet.Sample(i)
		b, bl := tr2.Sample(i)
		if al != bl || a != b {
			t.Fatal("split not deterministic")
		}
	}
}

func TestSplitBadFractionPanics(t *testing.T) {
	ds, _ := Generate(Config{Size: 16, PerClass: 1, Seed: 1, Classes: []int{0}})
	for _, f := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Split(%v) did not panic", f)
				}
			}()
			ds.Split(f, 1)
		}()
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Generate(Config{Size: 16, PerClass: 2, Seed: 4, Classes: []int{5, 7}})
	sub := ds.Subset(3)
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if ds.Subset(100).Len() != 4 {
		t.Fatal("Subset with n>len wrong")
	}
}

// Property: rendering any class at any reasonable size stays in [0,1] and
// is finite.
func TestRenderPropertyBounded(t *testing.T) {
	f := func(classRaw uint8, seed uint64) bool {
		class := int(classRaw) % NumClasses
		rng := mathx.NewRNG(seed)
		img := Render(class, 24, RandomJitter(rng), rng)
		return img.Min() >= 0 && img.Max() <= 1 && img.AllFinite()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRenderJitterChangesImage(t *testing.T) {
	rng := mathx.NewRNG(11)
	a := Render(ClassStop, 32, RandomJitter(rng), rng)
	b := Render(ClassStop, 32, RandomJitter(rng), rng)
	if tensor.EqualWithin(a, b, 1e-9) {
		t.Fatal("two jittered renders identical")
	}
}
