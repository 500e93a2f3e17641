package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("bad contents: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error on ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil || m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows: %v %v", m, err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("identity(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestSliceSharesStorage(t *testing.T) {
	m := NewMatrix(4, 4)
	v := m.Slice(1, 3, 1, 3)
	v.Set(0, 0, 42)
	if m.At(1, 1) != 42 {
		t.Fatal("slice does not alias parent")
	}
	if v.Rows != 2 || v.Cols != 2 {
		t.Fatalf("bad slice shape %dx%d", v.Rows, v.Cols)
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Slice(0, 3, 0, 1)
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestSwapRows(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 3 || m.At(1, 1) != 2 {
		t.Fatalf("swap failed: %v", m)
	}
	m.SwapRows(1, 1) // no-op must be safe
	if m.At(1, 0) != 1 {
		t.Fatal("self-swap corrupted data")
	}
}

func TestAddSub(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	c := NewMatrix(2, 2)
	if err := c.Add(a, b); err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 44 {
		t.Fatalf("add: %v", c)
	}
	if err := c.Sub(c, b); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(a, 0) {
		t.Fatalf("sub did not invert add: %v", c)
	}
	if err := c.Add(a, NewMatrix(1, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 3, 5)
	at := a.Transpose()
	if at.Rows != 5 || at.Cols != 3 {
		t.Fatalf("bad transpose shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Property: (A^T)^T == A.
	if !at.Transpose().Equal(a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestEqualShapes(t *testing.T) {
	if NewMatrix(2, 2).Equal(NewMatrix(2, 3), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}})
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty string rendering")
	}
	big := NewMatrix(20, 20)
	if s := big.String(); len(s) > 40 {
		t.Fatalf("large matrix should be abridged, got %q", s)
	}
}

// Property: row swap is an involution.
func TestSwapRowsInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := randMatrix(rng, n, n)
		orig := m.Clone()
		i, j := rng.Intn(n), rng.Intn(n)
		m.SwapRows(i, j)
		m.SwapRows(i, j)
		return m.Equal(orig, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose preserves the Frobenius norm.
func TestTransposeNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		return math.Abs(frobenius(m)-frobenius(m.Transpose())) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// frobenius returns the Frobenius norm of m.
func frobenius(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}
