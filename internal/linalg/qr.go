package linalg

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q*R of an m-by-n matrix with
// m >= n. The factors are stored compactly: R in the upper triangle of QR,
// the Householder vectors below the diagonal with scaling factors in Tau.
type QR struct {
	QR  *Matrix
	Tau []float64
}

// FactorizeQR computes the Householder QR factorization of a (copied).
// Requires a.Rows >= a.Cols.
func FactorizeQR(a *Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("%w: QR requires rows >= cols, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	m := a.Clone()
	rows, cols := m.Rows, m.Cols
	tau := make([]float64, cols)
	for k := 0; k < cols; k++ {
		// Compute the Householder reflector for column k below row k.
		var norm float64
		for i := k; i < rows; i++ {
			v := m.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		alpha := m.At(k, k)
		if alpha > 0 {
			norm = -norm
		}
		// v = x - norm*e1, normalized so v[0] = 1.
		v0 := alpha - norm
		tau[k] = -v0 / norm // standard LAPACK tau = (beta - alpha)/beta with sign handling
		invV0 := 1 / v0
		for i := k + 1; i < rows; i++ {
			m.Set(i, k, m.At(i, k)*invV0)
		}
		m.Set(k, k, norm)
		// Apply the reflector H = I - tau*v*v^T to the trailing columns.
		for j := k + 1; j < cols; j++ {
			// w = v^T * col_j
			w := m.At(k, j) // v[0] == 1
			for i := k + 1; i < rows; i++ {
				w += m.At(i, k) * m.At(i, j)
			}
			w *= tau[k]
			m.Set(k, j, m.At(k, j)-w)
			for i := k + 1; i < rows; i++ {
				m.Set(i, j, m.At(i, j)-w*m.At(i, k))
			}
		}
	}
	return &QR{QR: m, Tau: tau}, nil
}

// applyQT overwrites b with Q^T * b.
func (f *QR) applyQT(b []float64) {
	rows, cols := f.QR.Rows, f.QR.Cols
	for k := 0; k < cols; k++ {
		if f.Tau[k] == 0 {
			continue
		}
		w := b[k]
		for i := k + 1; i < rows; i++ {
			w += f.QR.At(i, k) * b[i]
		}
		w *= f.Tau[k]
		b[k] -= w
		for i := k + 1; i < rows; i++ {
			b[i] -= w * f.QR.At(i, k)
		}
	}
}

// SolveLS returns the least-squares solution x minimizing ||A*x - b||_2.
// b is not modified. Requires len(b) == A.Rows.
func (f *QR) SolveLS(b []float64) ([]float64, error) {
	rows, cols := f.QR.Rows, f.QR.Cols
	if len(b) != rows {
		return nil, ErrShape
	}
	qtb := make([]float64, rows)
	copy(qtb, b)
	f.applyQT(qtb)
	// Back-substitute against R (upper cols x cols block).
	x := make([]float64, cols)
	for i := cols - 1; i >= 0; i-- {
		s := qtb[i]
		row := f.QR.RowView(i)
		for j := i + 1; j < cols; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, fmt.Errorf("%w: rank-deficient least squares (R[%d,%d]=0)", ErrSingular, i, i)
		}
		x[i] = s / d
	}
	return x, nil
}
