// Package linalg provides the dense linear-algebra substrate used throughout
// the repository: matrices, blocked matrix multiplication, LU factorization
// with partial pivoting, triangular solves, Householder QR, and the norms
// needed for HPL-style residual checks.
//
// The package replaces the roles ATLAS (BLAS) and parts of GSL played in the
// paper's toolchain. It is written for clarity and reasonable performance
// with the standard library only; it is not a tuned BLAS.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use NewMatrix or FromRows to
// create sized matrices. Data is stored in a single backing slice; Row i
// occupies Data[i*Stride : i*Stride+Cols].
type Matrix struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// ErrShape reports an operation on matrices whose shapes do not conform.
var ErrShape = errors.New("linalg: dimension mismatch")

// ErrSingular reports a factorization that encountered an (exactly) singular
// pivot.
var ErrSingular = errors.New("linalg: matrix is singular")

// NewMatrix returns a zeroed r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(row), c)
		}
		copy(m.RowView(i), row)
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j). It panics when out of range, mirroring slice
// indexing semantics.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// RowView returns row i as a slice sharing the matrix's backing store.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// Clone returns a deep copy with a compact stride.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.RowView(i), m.RowView(i))
	}
	return out
}

// Slice returns a view of the submatrix rows [r0, r1) x cols [c0, c1)
// sharing backing storage with m.
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || r0 > r1 || c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("linalg: slice [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	return &Matrix{
		Rows:   r1 - r0,
		Cols:   c1 - c0,
		Stride: m.Stride,
		Data:   m.Data[r0*m.Stride+c0 : (r1-1)*m.Stride+c1],
	}
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.RowView(i), m.RowView(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Add stores a+b into m (which may alias a or b). Shapes must match.
func (m *Matrix) Add(a, b *Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || m.Rows != a.Rows || m.Cols != a.Cols {
		return ErrShape
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb, rm := a.RowView(i), b.RowView(i), m.RowView(i)
		for k := range rm {
			rm[k] = ra[k] + rb[k]
		}
	}
	return nil
}

// Sub stores a-b into m (which may alias a or b). Shapes must match.
func (m *Matrix) Sub(a, b *Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || m.Rows != a.Rows || m.Cols != a.Cols {
		return ErrShape
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb, rm := a.RowView(i), b.RowView(i), m.RowView(i)
		for k := range rm {
			rm[k] = ra[k] - rb[k]
		}
	}
	return nil
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports whether m and b have the same shape and elements within tol
// (absolute difference).
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.RowView(i), b.RowView(i)
		for k := range ra {
			if math.Abs(ra[k]-rb[k]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are abridged.
func (m *Matrix) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows > maxShow || m.Cols > maxShow {
		return s
	}
	for i := 0; i < m.Rows; i++ {
		s += "\n"
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf(" %10.4g", m.At(i, j))
		}
	}
	return s
}
