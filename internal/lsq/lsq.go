// Package lsq provides linear least-squares fitting in the style of GSL's
// gsl_multifit_linear, which the paper uses to extract the k0–k11 model
// coefficients. Fits are computed with Householder QR from internal/linalg
// (numerically safer than normal equations); a normal-equations path is kept
// for the ablation benchmarks.
package lsq

import (
	"errors"
	"fmt"
	"math"

	"hetmodel/internal/linalg"
)

// ErrBadInput reports inconsistent observation/design dimensions.
var ErrBadInput = errors.New("lsq: inconsistent input dimensions")

// Fit is the result of a linear least-squares fit y ≈ X·c.
type Fit struct {
	// Coeff holds the fitted coefficients c.
	Coeff []float64
	// ChiSq is the sum of squared residuals ||y - X·c||².
	ChiSq float64
	// RSquared is the coefficient of determination (1 when the model
	// explains all variance; can be negative for models worse than the
	// mean). Zero-variance observations yield RSquared = 1 if the fit is
	// exact, else 0.
	RSquared float64
	// DoF is the number of degrees of freedom (observations - parameters).
	DoF int
	// Cov is the coefficient covariance matrix σ²·(XᵀX)⁻¹ with
	// σ² = ChiSq/DoF (GSL's gsl_multifit_linear also reports it). It is
	// nil when DoF = 0 — exactly interpolating fits carry no variance
	// information, the pathology behind the paper's NS model.
	Cov *linalg.Matrix
}

// StdErr returns the standard error of coefficient j (0 when no covariance
// is available).
func (f *Fit) StdErr(j int) float64 {
	if f.Cov == nil || j < 0 || j >= f.Cov.Rows {
		return 0
	}
	v := f.Cov.At(j, j)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// MultifitLinear fits y ≈ X·c by unweighted linear least squares, mirroring
// gsl_multifit_linear. X is the design matrix (one row per observation, one
// column per coefficient); len(y) must equal X.Rows, and X.Rows >= X.Cols.
func MultifitLinear(x *linalg.Matrix, y []float64) (*Fit, error) {
	if len(y) != x.Rows {
		return nil, fmt.Errorf("%w: %d observations vs %d design rows", ErrBadInput, len(y), x.Rows)
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("%w: %d observations for %d parameters", ErrBadInput, x.Rows, x.Cols)
	}
	qr, err := linalg.FactorizeQR(x)
	if err != nil {
		return nil, err
	}
	c, err := qr.SolveLS(y)
	if err != nil {
		return nil, err
	}
	fit := summarize(x, y, c)
	fit.Cov = covariance(x, fit.ChiSq, fit.DoF)
	return fit, nil
}

// covariance computes σ²·(XᵀX)⁻¹, or nil when dof <= 0 or XᵀX is singular.
func covariance(x *linalg.Matrix, chisq float64, dof int) *linalg.Matrix {
	if dof <= 0 {
		return nil
	}
	xt := x.Transpose()
	xtx, err := linalg.Mul(xt, x)
	if err != nil {
		return nil
	}
	f, err := linalg.Factorize(xtx)
	if err != nil {
		return nil
	}
	p := x.Cols
	cov := linalg.NewMatrix(p, p)
	e := make([]float64, p)
	sigma2 := chisq / float64(dof)
	for j := 0; j < p; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil
		}
		for i := 0; i < p; i++ {
			cov.Set(i, j, col[i]*sigma2)
		}
	}
	return cov
}

// MultifitNormalEquations solves the same problem via the normal equations
// X^T X c = X^T y. It is faster for tall-skinny systems but numerically less
// robust; retained for the DESIGN.md ablation.
func MultifitNormalEquations(x *linalg.Matrix, y []float64) (*Fit, error) {
	if len(y) != x.Rows {
		return nil, fmt.Errorf("%w: %d observations vs %d design rows", ErrBadInput, len(y), x.Rows)
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("%w: %d observations for %d parameters", ErrBadInput, x.Rows, x.Cols)
	}
	xt := x.Transpose()
	xtx, err := linalg.Mul(xt, x)
	if err != nil {
		return nil, err
	}
	xty, err := linalg.MulVec(xt, y)
	if err != nil {
		return nil, err
	}
	c, err := linalg.SolveLinear(xtx, xty)
	if err != nil {
		return nil, err
	}
	return summarize(x, y, c), nil
}

// summarize reports the residual sum of squares and R² of coefficients c.
func summarize(x *linalg.Matrix, y, c []float64) *Fit {
	var chisq, mean float64
	for _, v := range y {
		mean += v
	}
	if len(y) > 0 {
		mean /= float64(len(y))
	}
	var tss float64
	for i := range y {
		pred := 0.0
		row := x.RowView(i)
		for j, v := range row {
			pred += v * c[j]
		}
		d := y[i] - pred
		chisq += d * d
		dm := y[i] - mean
		tss += dm * dm
	}
	r2 := 0.0
	switch {
	case tss > 0:
		r2 = 1 - chisq/tss
	case chisq == 0:
		r2 = 1
	}
	return &Fit{
		Coeff:    c,
		ChiSq:    chisq,
		RSquared: r2,
		DoF:      x.Rows - x.Cols,
	}
}

// PolynomialDesign builds a design matrix whose row i is
// [xs[i]^degrees[0], xs[i]^degrees[1], ...]. Degree 0 yields the intercept
// column. This is the basis builder used for the paper's N-T models
// (degrees 3,2,1,0 for Ta and 2,1,0 for Tc).
func PolynomialDesign(xs []float64, degrees []int) *linalg.Matrix {
	m := linalg.NewMatrix(len(xs), len(degrees))
	for i, x := range xs {
		row := m.RowView(i)
		for j, d := range degrees {
			row[j] = math.Pow(x, float64(d))
		}
	}
	return m
}

// FitPolynomial fits y ≈ sum_j c_j x^degrees[j] and returns the fit.
func FitPolynomial(xs, ys []float64, degrees []int) (*Fit, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d xs vs %d ys", ErrBadInput, len(xs), len(ys))
	}
	return MultifitLinear(PolynomialDesign(xs, degrees), ys)
}

// EvalPolynomial evaluates a polynomial fit (same degrees) at x.
//
// Deliberately the power-sum form, term by term via math.Pow: a Horner
// rewrite is one multiply-add per coefficient but rounds differently at
// the last ULP, and the committed figures assert byte-identical
// regeneration (full-precision coordinates) across releases. The float64
// conversion rounds each term before the add, which forbids FMA fusion on
// platforms that would otherwise fuse it — the same byte-stability, held
// across architectures.
//
//het:bitexact
func EvalPolynomial(coeff []float64, degrees []int, x float64) float64 {
	var s float64
	for j, d := range degrees {
		s += float64(coeff[j] * math.Pow(x, float64(d)))
	}
	return s
}
