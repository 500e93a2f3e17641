package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference triple loop used to validate the blocked kernel.
func naiveMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {64, 64, 64}, {65, 63, 70}, {130, 20, 7}} {
		a := randMatrix(rng, dims[0], dims[1])
		b := randMatrix(rng, dims[1], dims[2])
		got, err := Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMul(a, b)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("Mul mismatch for dims %v", dims)
		}
	}
}

func TestMulShapeError(t *testing.T) {
	if _, err := Mul(NewMatrix(2, 3), NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulAddAlphaZeroNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMatrix(rng, 4, 4), randMatrix(rng, 4, 4)
	c := randMatrix(rng, 4, 4)
	orig := c.Clone()
	if err := MulAdd(0, a, b, c); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(orig, 0) {
		t.Fatal("alpha=0 modified C")
	}
}

func TestMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMatrix(rng, 8, 8), randMatrix(rng, 8, 8)
	c := NewMatrix(8, 8)
	if err := MulAdd(2, a, b, c); err != nil {
		t.Fatal(err)
	}
	want := naiveMul(a, b)
	if err := want.Add(want, want); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("alpha scaling wrong")
	}
	// Accumulate again: C should double.
	if err := MulAdd(2, a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := want.Add(want, want); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("accumulation wrong")
	}
}

func TestParallelMulAddMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		a := randMatrix(rng, 37, 29)
		b := randMatrix(rng, 29, 41)
		c1 := NewMatrix(37, 41)
		c2 := NewMatrix(37, 41)
		if err := MulAdd(1.5, a, b, c1); err != nil {
			t.Fatal(err)
		}
		if err := ParallelMulAdd(1.5, a, b, c2, workers); err != nil {
			t.Fatal(err)
		}
		if !c1.Equal(c2, 1e-10) {
			t.Fatalf("parallel(%d) disagrees with serial", workers)
		}
	}
}

func TestParallelMulAddShapeError(t *testing.T) {
	if err := ParallelMulAdd(1, NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(2, 3), 2); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := MulVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec: %v", y)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

// Property: matrix multiplication is associative within tolerance.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a, b, c := randMatrix(rng, n, n), randMatrix(rng, n, n), randMatrix(rng, n, n)
		ab, _ := Mul(a, b)
		abc1, _ := Mul(ab, c)
		bc, _ := Mul(b, c)
		abc2, _ := Mul(a, bc)
		return abc1.Equal(abc2, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: A*I == A.
func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(9), 1+rng.Intn(9)
		a := randMatrix(rng, r, c)
		ai, _ := Mul(a, Identity(c))
		return ai.Equal(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 6, 6)
	x := make([]float64, 6)
	y := make([]float64, 6)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	xy := make([]float64, 6)
	for i := range xy {
		xy[i] = x[i] + y[i]
	}
	ax, _ := MulVec(a, x)
	ay, _ := MulVec(a, y)
	axy, _ := MulVec(a, xy)
	for i := range axy {
		if math.Abs(axy[i]-ax[i]-ay[i]) > 1e-10 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}
