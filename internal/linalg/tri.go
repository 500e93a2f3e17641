package linalg

import "fmt"

// SolveLowerUnit solves L*X = B in place where L is unit lower triangular
// (diagonal implicitly one; only the strict lower triangle of l is read).
// B is overwritten with X. This mirrors BLAS dtrsm('L','L','N','U').
func SolveLowerUnit(l, b *Matrix) error {
	if l.Rows != l.Cols || l.Rows != b.Rows {
		return fmt.Errorf("%w: trsm lower %dx%d with rhs %dx%d", ErrShape, l.Rows, l.Cols, b.Rows, b.Cols)
	}
	n := l.Rows
	for i := 1; i < n; i++ {
		li := l.RowView(i)
		bi := b.RowView(i)
		for k := 0; k < i; k++ {
			lik := li[k]
			if lik == 0 {
				continue
			}
			axpy(-lik, bi, b.RowView(k))
		}
	}
	return nil
}

// SolveUpper solves U*X = B in place where U is upper triangular with a
// nonzero diagonal. B is overwritten with X (dtrsm('L','U','N','N')).
func SolveUpper(u, b *Matrix) error {
	if u.Rows != u.Cols || u.Rows != b.Rows {
		return fmt.Errorf("%w: trsm upper %dx%d with rhs %dx%d", ErrShape, u.Rows, u.Cols, b.Rows, b.Cols)
	}
	n := u.Rows
	for i := n - 1; i >= 0; i-- {
		ui := u.RowView(i)
		bi := b.RowView(i)
		for k := i + 1; k < n; k++ {
			uik := ui[k]
			if uik == 0 {
				continue
			}
			axpy(-uik, bi, b.RowView(k))
		}
		d := ui[i]
		if d == 0 {
			return fmt.Errorf("%w: zero diagonal at %d", ErrSingular, i)
		}
		inv := 1 / d
		for j := range bi {
			bi[j] *= inv
		}
	}
	return nil
}

// SolveUpperVec solves U*x = b for a single right-hand side, returning x.
func SolveUpperVec(u *Matrix, b []float64) ([]float64, error) {
	if u.Rows != u.Cols || len(b) != u.Rows {
		return nil, ErrShape
	}
	n := u.Rows
	x := make([]float64, n)
	copy(x, b)
	for i := n - 1; i >= 0; i-- {
		row := u.RowView(i)
		if row[i] == 0 {
			return nil, fmt.Errorf("%w: zero diagonal at %d", ErrSingular, i)
		}
		x[i] = (x[i] - dot(row[i+1:], x[i+1:])) / row[i]
	}
	return x, nil
}

// SolveLowerUnitVec solves L*x = b (unit diagonal) for one right-hand side.
func SolveLowerUnitVec(l *Matrix, b []float64) ([]float64, error) {
	if l.Rows != l.Cols || len(b) != l.Rows {
		return nil, ErrShape
	}
	n := l.Rows
	x := make([]float64, n)
	copy(x, b)
	for i := 1; i < n; i++ {
		row := l.RowView(i)
		x[i] -= dot(row[:i], x[:i])
	}
	return x, nil
}
