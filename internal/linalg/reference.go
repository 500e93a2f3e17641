package linalg

// This file holds the naive reference kernels: straightforward per-element
// loops through At/Set, written for obviousness rather than speed. They are
// the oracle the property tests compare the blocked kernels against and
// double as executable documentation of what the fast paths compute.

// refMulAdd computes C += alpha*A*B one element at a time (ijp order).
func refMulAdd(alpha float64, a, b, c *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := c.At(i, j)
			for p := 0; p < a.Cols; p++ {
				aip := alpha * a.At(i, p)
				if aip == 0 {
					continue
				}
				acc += aip * b.At(p, j)
			}
			c.Set(i, j, acc)
		}
	}
}

// refSolveLowerUnit solves L*X = B in place, per element.
func refSolveLowerUnit(l, b *Matrix) {
	n := l.Rows
	for i := 1; i < n; i++ {
		for k := 0; k < i; k++ {
			lik := l.At(i, k)
			if lik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				b.Set(i, j, b.At(i, j)-lik*b.At(k, j))
			}
		}
	}
}

// refSolveUpper solves U*X = B in place, per element. Returns false on a
// zero diagonal.
func refSolveUpper(u, b *Matrix) bool {
	n := u.Rows
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			uik := u.At(i, k)
			if uik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				b.Set(i, j, b.At(i, j)-uik*b.At(k, j))
			}
		}
		d := u.At(i, i)
		if d == 0 {
			return false
		}
		inv := 1 / d
		for j := 0; j < b.Cols; j++ {
			b.Set(i, j, b.At(i, j)*inv)
		}
	}
	return true
}
