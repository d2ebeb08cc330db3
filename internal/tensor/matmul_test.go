package tensor

import (
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
	if c.Dim(0) != 2 || c.Dim(1) != 2 {
		t.Fatalf("MatMul shape = %v", c.Shape())
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := mathx.NewRNG(1)
	a := RandN(r, 4, 4)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if !EqualWithin(MatMul(a, eye), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !EqualWithin(MatMul(eye, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulAccum(t *testing.T) {
	a := FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := Full(1, 2, 2)
	MatMulAccum(dst, a, b)
	want := []float64{6, 7, 8, 9}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("MatMulAccum = %v", dst.Data())
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at.Data())
	}
}

// MatMulTransA(a,b) must equal MatMul(Transpose2D(a), b).
func TestMatMulTransAMatchesExplicit(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		a := RandN(r, 5, 3)
		b := RandN(r, 5, 4)
		return EqualWithin(MatMulTransA(a, b), MatMul(Transpose2D(a), b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// MatMulTransB(a,b) must equal MatMul(a, Transpose2D(b)).
func TestMatMulTransBMatchesExplicit(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		a := RandN(r, 4, 6)
		b := RandN(r, 3, 6)
		return EqualWithin(MatMulTransB(a, b), MatMul(a, Transpose2D(b)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: (AB)C == A(BC) for random matrices (associativity within fp tolerance).
func TestMatMulAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		a := RandN(r, 3, 4)
		b := RandN(r, 4, 5)
		c := RandN(r, 5, 2)
		return EqualWithin(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// naiveMatMul is the historical reference kernel: per output element a
// running accumulation over k in increasing order, skipping a==0 terms.
// Every public variant must stay bit-identical to a composition of this
// with explicit transposes.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := out.data[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
	return out
}

// awkwardDims covers every microkernel remainder case: below/at/above the
// 4×4 register tile in both dimensions, degenerate 1×n and m×1 shapes,
// non-multiples of the tile, and sizes crossing the kc/mc/nc cache-block
// boundaries so multi-block accumulation order is exercised.
var awkwardDims = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31}

// awkwardK adds k values around the small-kernel dispatch threshold and
// the kc=256 blocking boundary.
var awkwardK = []int{1, 2, 3, 4, 5, 9, 64, 255, 256, 257}

// TestGEMMBlockedMatchesNaiveExhaustive drives every (m, k, n) combination
// of the awkward shapes through all six kernel variants and demands
// bit-exact agreement with the naive reference.
func TestGEMMBlockedMatchesNaiveExhaustive(t *testing.T) {
	r := mathx.NewRNG(99)
	for _, m := range awkwardDims {
		for _, k := range awkwardK {
			for _, n := range awkwardDims {
				a := RandN(r, m, k)
				b := RandN(r, k, n)
				// Sprinkle exact zeros so the naive kernel's zero-skip
				// path is exercised against the packed core.
				a.data[0] = 0
				if k > 2 {
					b.data[k/2*n] = 0
				}
				want := naiveMatMul(a, b)

				if got := MatMul(a, b); !EqualWithin(got, want, 0) {
					t.Fatalf("MatMul(%dx%d, %dx%d) != naive", m, k, k, n)
				}
				dst := RandN(r, m, n)
				MatMulInto(dst, a, b)
				if !EqualWithin(dst, want, 0) {
					t.Fatalf("MatMulInto(%dx%d, %dx%d) != naive", m, k, k, n)
				}
				if got := MatMulTransA(Transpose2D(a), b); !EqualWithin(got, want, 0) {
					t.Fatalf("MatMulTransA(%dx%d, %dx%d) != naive", k, m, k, n)
				}
				if got := MatMulTransB(a, Transpose2D(b)); !EqualWithin(got, want, 0) {
					t.Fatalf("MatMulTransB(%dx%d, %dx%d) != naive", m, k, n, k)
				}
			}
		}
	}
}

// TestGEMMAccumMatchesNaiveExhaustive checks the accumulating variants:
// MatMulAccum and MatMulAccumTransA add per-k running contributions on
// top of dst; MatMulAccumTransB adds the complete product in one rounded
// addition per element (its historical contract).
func TestGEMMAccumMatchesNaiveExhaustive(t *testing.T) {
	r := mathx.NewRNG(100)
	for _, m := range awkwardDims {
		for _, k := range awkwardK {
			for _, n := range awkwardDims {
				a := RandN(r, m, k)
				b := RandN(r, k, n)
				seed := RandN(r, m, n)

				// Running accumulation reference: start from seed, add one
				// product per k index in increasing order.
				runWant := seed.Clone()
				for i := 0; i < m; i++ {
					for p := 0; p < k; p++ {
						av := a.data[i*k+p]
						if av == 0 {
							continue
						}
						for j := 0; j < n; j++ {
							runWant.data[i*n+j] += av * b.data[p*n+j]
						}
					}
				}
				dst := seed.Clone()
				MatMulAccum(dst, a, b)
				if !EqualWithin(dst, runWant, 0) {
					t.Fatalf("MatMulAccum(%d,%d,%d) != running naive", m, k, n)
				}
				dst = seed.Clone()
				MatMulAccumTransA(dst, Transpose2D(a), b)
				if !EqualWithin(dst, runWant, 0) {
					t.Fatalf("MatMulAccumTransA(%d,%d,%d) != running naive", m, k, n)
				}

				// Dot-then-add reference for the TransB form.
				dotWant := seed.Clone()
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						s := 0.0
						for p := 0; p < k; p++ {
							s += a.data[i*k+p] * b.data[p*n+j]
						}
						dotWant.data[i*n+j] += s
					}
				}
				dst = seed.Clone()
				MatMulAccumTransB(dst, a, Transpose2D(b))
				if !EqualWithin(dst, dotWant, 0) {
					t.Fatalf("MatMulAccumTransB(%d,%d,%d) != dot naive", m, k, n)
				}
			}
		}
	}
}

// TestGEMMPackedAndSmallPathsAgree pins the dispatch-independence of the
// kernel: forcing the packed core and the small fallback over the same
// operands must give bit-identical output, so the size heuristic can be
// retuned freely without changing any result.
func TestGEMMPackedAndSmallPathsAgree(t *testing.T) {
	r := mathx.NewRNG(101)
	for _, d := range []struct{ m, k, n int }{
		{2, 4, 16}, {4, 256, 4}, {5, 257, 9}, {16, 64, 16}, {128, 128, 128},
	} {
		a := RandN(r, d.m, d.k)
		b := RandN(r, d.k, d.n)
		packed := New(d.m, d.n)
		small := New(d.m, d.n)
		gemmPacked(packed.data, d.m, d.n, d.k, a.data, d.k, 1, b.data, d.n, 1)
		gemmSmall(small.data, d.m, d.n, d.k, a.data, d.k, 1, b.data, d.n, 1)
		if !EqualWithin(packed, small, 0) {
			t.Fatalf("packed and small paths disagree for %dx%dx%d", d.m, d.k, d.n)
		}
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 0, -1}, 3)
	y := MatVec(a, x)
	if y.Data()[0] != -2 || y.Data()[1] != -2 {
		t.Fatalf("MatVec = %v", y.Data())
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	r := mathx.NewRNG(8)
	a := RandN(r, 6, 5)
	x := RandN(r, 5)
	viaMatMul := MatMul(a, x.Reshape(5, 1)).Flatten()
	if !EqualWithin(MatVec(a, x), viaMatMul, 1e-12) {
		t.Fatal("MatVec disagrees with MatMul")
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	r := mathx.NewRNG(21)
	a := RandN(r, 7, 5)
	b := RandN(r, 5, 9)
	dst := RandN(r, 7, 9) // non-zero garbage: Into must overwrite
	MatMulInto(dst, a, b)
	if !EqualWithin(dst, MatMul(a, b), 0) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
}

func TestMatMulTransAIntoMatchesMatMulTransA(t *testing.T) {
	r := mathx.NewRNG(22)
	a := RandN(r, 6, 4)
	b := RandN(r, 6, 8)
	dst := RandN(r, 4, 8)
	MatMulTransAInto(dst, a, b)
	if !EqualWithin(dst, MatMulTransA(a, b), 0) {
		t.Fatal("MatMulTransAInto disagrees with MatMulTransA")
	}
}

func TestMatMulAccumTransBMatchesTransposedAccum(t *testing.T) {
	r := mathx.NewRNG(23)
	a := RandN(r, 5, 6)
	b := RandN(r, 7, 6)
	dst := RandN(r, 5, 7)
	want := dst.Clone()
	MatMulAccumTransB(dst, a, b)
	// Reference: materialized transpose plus dot-product accumulation.
	bt := Transpose2D(b)
	prod := MatMul(a, bt)
	want.AddInPlace(prod)
	if !EqualWithin(dst, want, 1e-12) {
		t.Fatal("MatMulAccumTransB disagrees with MatMulAccum over Transpose2D")
	}
}

func TestMatMulAccumTransAMatchesComposition(t *testing.T) {
	r := mathx.NewRNG(24)
	a := RandN(r, 6, 3)
	b := RandN(r, 6, 4)
	dst := RandN(r, 3, 4)
	want := dst.Clone()
	want.AddInPlace(MatMulTransA(a, b))
	MatMulAccumTransA(dst, a, b)
	if !EqualWithin(dst, want, 1e-12) {
		t.Fatal("MatMulAccumTransA disagrees with MatMulTransA + AddInPlace")
	}
}

// BenchmarkGEMM128 measures the packed core on the 128³ shape of the
// bench/ ladder's tensor.matmul_f64_us rung.
func BenchmarkGEMM128(b *testing.B) {
	r := mathx.NewRNG(2)
	x := RandN(r, 128, 128)
	y := RandN(r, 128, 128)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkGEMMConvShape measures the dominant conv-layer shape of the
// tiny profile (OutC×patch × patch×spatial after im2col).
func BenchmarkGEMMConvShape(b *testing.B) {
	r := mathx.NewRNG(3)
	w := RandN(r, 24, 108)
	cols := RandN(r, 108, 256)
	dst := New(24, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, w, cols)
	}
}
