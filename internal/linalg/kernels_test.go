package linalg

import (
	"math/rand"
	"testing"
)

// kernelShapes covers the blocking edge cases: empty, single element,
// sub-block, exact multiples of gemmBlock, one-off-a-multiple, and long
// skinny panels like the HPL trailing updates.
var kernelShapes = [][3]int{
	{0, 0, 0}, {0, 5, 3}, {4, 0, 6}, {7, 3, 0},
	{1, 1, 1}, {3, 5, 2},
	{gemmBlock, gemmBlock, gemmBlock},
	{gemmBlock - 1, gemmBlock + 1, gemmBlock},
	{2*gemmBlock + 3, gemmBlock - 2, gemmBlock + 5},
	{130, 7, 99}, {5, 200, 3},
}

func TestMulAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range kernelShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		c0 := randMatrix(rng, m, n)
		got := c0.Clone()
		if err := MulAdd(1.5, a, b, got); err != nil {
			t.Fatal(err)
		}
		want := c0.Clone()
		refMulAdd(1.5, a, b, want)
		// The blocked kernel preserves the reference's per-element
		// accumulation order, so agreement is exact, not approximate.
		if !equalExact(got, want) {
			t.Fatalf("MulAdd mismatch for dims %v", dims)
		}
	}
}

func TestMulAddMatchesReferenceOnStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][3]int{{5, 9, 7}, {gemmBlock + 2, gemmBlock - 3, 17}} {
		m, k, n := dims[0], dims[1], dims[2]
		// Interior slices of larger parents: Stride > Cols on every operand.
		ap := randMatrix(rng, m+4, k+6)
		bp := randMatrix(rng, k+3, n+5)
		cp := randMatrix(rng, m+2, n+8)
		a := ap.Slice(2, 2+m, 3, 3+k)
		b := bp.Slice(1, 1+k, 4, 4+n)
		c := cp.Slice(1, 1+m, 2, 2+n)
		want := c.Clone()
		refMulAdd(-0.75, a, b, want)
		if err := MulAdd(-0.75, a, b, c); err != nil {
			t.Fatal(err)
		}
		if !equalExact(c.Clone(), want) {
			t.Fatalf("strided MulAdd mismatch for dims %v", dims)
		}
	}
}

func TestTriangularSolvesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][2]int{{1, 1}, {5, 3}, {gemmBlock, 7}, {gemmBlock + 9, gemmBlock - 1}, {97, 31}} {
		n, m := dims[0], dims[1]
		tri := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			tri.Set(i, i, 1+rng.Float64()) // well away from zero
		}
		rhs := randMatrix(rng, n, m)

		gotL := rhs.Clone()
		if err := SolveLowerUnit(tri, gotL); err != nil {
			t.Fatal(err)
		}
		wantL := rhs.Clone()
		refSolveLowerUnit(tri, wantL)
		if !equalExact(gotL, wantL) {
			t.Fatalf("SolveLowerUnit mismatch for n=%d m=%d", n, m)
		}

		gotU := rhs.Clone()
		if err := SolveUpper(tri, gotU); err != nil {
			t.Fatal(err)
		}
		wantU := rhs.Clone()
		if !refSolveUpper(tri, wantU) {
			t.Fatalf("reference SolveUpper rejected n=%d", n)
		}
		if !equalExact(gotU, wantU) {
			t.Fatalf("SolveUpper mismatch for n=%d m=%d", n, m)
		}
	}
}

func TestSolveUpperZeroDiagonalBothKernels(t *testing.T) {
	u := NewMatrix(3, 3)
	u.Set(0, 0, 1)
	u.Set(1, 1, 0) // singular
	u.Set(2, 2, 2)
	b := NewMatrix(3, 1)
	if err := SolveUpper(u, b.Clone()); err == nil {
		t.Fatal("blocked kernel accepted zero diagonal")
	}
	if refSolveUpper(u, b.Clone()) {
		t.Fatal("reference kernel accepted zero diagonal")
	}
}

func TestMulAddSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMatrix(rng, gemmBlock+5, gemmBlock)
	b := randMatrix(rng, gemmBlock, gemmBlock+3)
	c := randMatrix(rng, gemmBlock+5, gemmBlock+3)
	// Warm the pack pool, then assert the hot loop allocates nothing.
	if err := MulAdd(1, a, b, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := MulAdd(1, a, b, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MulAdd allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

func TestAxpyDotAgreeWithRolledLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100} {
		src := make([]float64, n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			dst[i] = rng.NormFloat64()
			want[i] = dst[i]
		}
		alpha := rng.NormFloat64()
		var wantDot float64
		for i := range want {
			want[i] += alpha * src[i]
			wantDot += dst[i] * src[i]
		}
		if got := dot(dst, src); got != wantDot {
			t.Fatalf("n=%d: dot = %v, want %v", n, got, wantDot)
		}
		Axpy(alpha, dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// equalExact reports bitwise equality of two same-shape matrices.
func equalExact(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}
