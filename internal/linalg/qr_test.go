package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRSquareSolve(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 1},
		{1, 3},
	})
	f, err := FactorizeQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLS([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Exact solution of [[4,1],[1,3]] x = [1,2] is x = [1/11, 7/11].
	if math.Abs(x[0]-1.0/11) > 1e-12 || math.Abs(x[1]-7.0/11) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestQRUnderdetermined(t *testing.T) {
	if _, err := FactorizeQR(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 exactly through three collinear points.
	a, _ := FromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
	})
	f, err := FactorizeQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLS([]float64{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("fit = %v, want [1 2]", x)
	}
	ax, _ := MulVec(a, x)
	for i, want := range []float64{1, 3, 5} {
		if math.Abs(ax[i]-want) > 1e-10 {
			t.Fatalf("residual at %d = %v, want ~0", i, ax[i]-want)
		}
	}
}

func TestQRResidualNonzero(t *testing.T) {
	// Points not on a line: the residual b - Ax* must be nonzero and
	// orthogonal to every column of A (the normal equations).
	a, _ := FromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
	})
	b := []float64{0, 1, 0}
	f, _ := FactorizeQR(a)
	x, _ := f.SolveLS(b)
	ax, _ := MulVec(a, x)
	r := make([]float64, len(b))
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	if VecNormInf(r) < 0.1 {
		t.Fatalf("residual %v, want clearly nonzero", r)
	}
	atr, _ := MulVec(a.Transpose(), r)
	if VecNormInf(atr) > 1e-12 {
		t.Fatalf("A^T r = %v, want ~0", atr)
	}
}

func TestQRWrongRHSLength(t *testing.T) {
	f, _ := FactorizeQR(Identity(3))
	if _, err := f.SolveLS([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 1},
		{1, 1},
		{1, 1},
	})
	f, err := FactorizeQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveLS([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// Property: QR least-squares solution satisfies the normal equations
// A^T A x = A^T b within tolerance.
func TestQRNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(20)
		n := 1 + rng.Intn(3)
		if n > m {
			n = m
		}
		a := randMatrix(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		qr, err := FactorizeQR(a)
		if err != nil {
			return false
		}
		x, err := qr.SolveLS(b)
		if err != nil {
			return true // rank-deficient random draw; acceptable to refuse
		}
		at := a.Transpose()
		ax, _ := MulVec(a, x)
		r := make([]float64, m)
		for i := range r {
			r[i] = ax[i] - b[i]
		}
		atr, _ := MulVec(at, r)
		return VecNormInf(atr) < 1e-8*float64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: QR on a square nonsingular matrix reproduces the LU solution.
func TestQRAgreesWithLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xlu, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		qr, err := FactorizeQR(a)
		if err != nil {
			return false
		}
		xqr, err := qr.SolveLS(b)
		if err != nil {
			return false
		}
		for i := range xlu {
			if math.Abs(xlu[i]-xqr[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
