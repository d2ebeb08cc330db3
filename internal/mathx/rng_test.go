package mathx

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d: %v != %v for equal seeds", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical draws", same)
	}
}

func TestRNGRangeBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range(-2,5) returned %v", v)
		}
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 returned %v outside [0,1)", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	if m := Mean(xs); math.Abs(m) > 0.05 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if s := StdDev(xs); math.Abs(s-1) > 0.05 {
		t.Errorf("normal stddev = %v, want ~1", s)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("permutation missing elements: %v", p)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(19)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func TestRNGIntN(t *testing.T) {
	r := NewRNG(23)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		counts[r.IntN(5)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("IntN bucket %d count %d far from uniform", b, c)
		}
	}
}
