package linalg

import "math"

// NormInf returns the maximum absolute row sum of a (the matrix inf-norm).
func NormInf(a *Matrix) float64 {
	var mx float64
	for i := 0; i < a.Rows; i++ {
		var s float64
		for _, v := range a.RowView(i) {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// VecNormInf returns max_i |x_i|.
func VecNormInf(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// HPLResidual computes the scaled residual HPL reports for a solve A*x = b:
//
//	||A*x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * n)
//
// Values of O(1) (HPL's threshold is 16) indicate a numerically correct
// solution.
func HPLResidual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := MulVec(a, x)
	if err != nil {
		return 0, err
	}
	for i := range ax {
		ax[i] -= b[i]
	}
	n := float64(a.Rows)
	eps := math.Nextafter(1, 2) - 1
	denom := eps * (NormInf(a)*VecNormInf(x) + VecNormInf(b)) * n
	if denom == 0 {
		return 0, nil
	}
	return VecNormInf(ax) / denom, nil
}
