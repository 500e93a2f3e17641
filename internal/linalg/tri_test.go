package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func lowerUnitFrom(rng *rand.Rand, n int) *Matrix {
	l := Identity(n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, rng.NormFloat64())
		}
	}
	return l
}

func upperFrom(rng *rand.Rand, n int) *Matrix {
	u := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, rng.NormFloat64())
		}
		u.Set(i, i, u.At(i, i)+3) // keep well away from zero
	}
	return u
}

func TestSolveLowerUnitMatrixRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := lowerUnitFrom(rng, 6)
	x := randMatrix(rng, 6, 3)
	b, _ := Mul(l, x)
	if err := SolveLowerUnit(l, b); err != nil {
		t.Fatal(err)
	}
	if !b.Equal(x, 1e-9) {
		t.Fatal("lower solve wrong")
	}
}

func TestSolveUpperMatrixRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := upperFrom(rng, 6)
	x := randMatrix(rng, 6, 4)
	b, _ := Mul(u, x)
	if err := SolveUpper(u, b); err != nil {
		t.Fatal(err)
	}
	if !b.Equal(x, 1e-9) {
		t.Fatal("upper solve wrong")
	}
}

func TestSolveUpperZeroDiagonal(t *testing.T) {
	u := NewMatrix(2, 2)
	u.Set(0, 0, 1)
	// u[1][1] stays 0
	b := NewMatrix(2, 1)
	if err := SolveUpper(u, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestTriShapeErrors(t *testing.T) {
	if err := SolveLowerUnit(NewMatrix(2, 3), NewMatrix(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("lower: want shape error")
	}
	if err := SolveUpper(NewMatrix(3, 3), NewMatrix(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("upper: want shape error")
	}
	if _, err := SolveUpperVec(NewMatrix(3, 3), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("upper vec: want shape error")
	}
	if _, err := SolveLowerUnitVec(NewMatrix(3, 3), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("lower vec: want shape error")
	}
}

func TestSolveUpperVecKnown(t *testing.T) {
	u, _ := FromRows([][]float64{
		{2, 1},
		{0, 4},
	})
	x, err := SolveUpperVec(u, []float64{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[1]-2) > 1e-14 || math.Abs(x[0]-1) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveUpperVecSingular(t *testing.T) {
	u := NewMatrix(2, 2)
	u.Set(0, 0, 1)
	if _, err := SolveUpperVec(u, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// Property: vector triangular solves invert multiplication.
func TestTriangularSolveInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		l := lowerUnitFrom(rng, n)
		u := upperFrom(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lb, _ := MulVec(l, x)
		xl, err := SolveLowerUnitVec(l, lb)
		if err != nil {
			return false
		}
		ub, _ := MulVec(u, x)
		xu, err := SolveUpperVec(u, ub)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(xl[i]-x[i]) > 1e-7 || math.Abs(xu[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNorms(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, -2},
		{-3, 4},
	})
	if got := NormInf(a); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
	if got := VecNormInf([]float64{1, -5, 2}); got != 5 {
		t.Fatalf("VecNormInf = %v", got)
	}
}

func TestHPLResidualPerfect(t *testing.T) {
	a := Identity(3)
	x := []float64{1, 2, 3}
	r, err := HPLResidual(a, x, x)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("residual of exact solve = %v", r)
	}
}

func TestHPLResidualZeroDenominator(t *testing.T) {
	a := NewMatrix(2, 2)
	r, err := HPLResidual(a, []float64{0, 0}, []float64{0, 0})
	if err != nil || r != 0 {
		t.Fatalf("r=%v err=%v", r, err)
	}
}
