package mathx

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance single = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3, 5}); got != 1 {
		t.Errorf("ArgMax tie handling = %v, want 1", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %v", got)
	}
}

func TestArgMaxDegenerate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		want int
	}{
		{"all NaN", []float64{nan, nan, nan}, 0},
		{"leading NaN", []float64{nan, 2, 1}, 1},
		{"trailing NaN", []float64{1, 3, nan}, 1},
		{"NaN between", []float64{1, nan, 5}, 2},
		{"single NaN", []float64{nan}, 0},
		{"neg inf beats NaN", []float64{nan, math.Inf(-1)}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.xs); got != c.want {
			t.Errorf("%s: ArgMax(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// Any non-empty input must yield an index callers can use to subscript
	// the slice — the Predict hot paths rely on it.
	for _, xs := range [][]float64{{nan}, {nan, nan}, {0}, {-1, nan}} {
		if got := ArgMax(xs); got < 0 || got >= len(xs) {
			t.Fatalf("ArgMax(%v) = %v out of range", xs, got)
		}
	}
}

func TestTopKIndices(t *testing.T) {
	xs := []float64{0.1, 0.7, 0.2, 0.7, 0.05}
	got := TopKIndices(xs, 3)
	want := []int{1, 3, 2} // ties keep lower index first
	if len(got) != len(want) {
		t.Fatalf("TopKIndices len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKIndices = %v, want %v", got, want)
		}
	}
	if got := TopKIndices(xs, 100); len(got) != len(xs) {
		t.Errorf("TopKIndices with k>len = %v", got)
	}
	if got := TopKIndices(xs, 0); got != nil {
		t.Errorf("TopKIndices with k=0 = %v", got)
	}
}

func TestTopKIndicesDescending(t *testing.T) {
	r := NewRNG(5)
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = r.Float64()
	}
	idx := TopKIndices(xs, len(xs))
	for i := 1; i < len(idx); i++ {
		if xs[idx[i-1]] < xs[idx[i]] {
			t.Fatalf("TopKIndices not descending at %d", i)
		}
	}
}
