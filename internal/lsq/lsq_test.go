package lsq

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetmodel/internal/linalg"
)

func TestMultifitLinearExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	fit, err := FitPolynomial(xs, ys, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeff[0]-3) > 1e-10 || math.Abs(fit.Coeff[1]-7) > 1e-10 {
		t.Fatalf("coeff = %v", fit.Coeff)
	}
	if fit.ChiSq > 1e-18 {
		t.Fatalf("chisq = %v", fit.ChiSq)
	}
	if math.Abs(fit.RSquared-1) > 1e-12 {
		t.Fatalf("R² = %v", fit.RSquared)
	}
	if fit.DoF != 3 {
		t.Fatalf("dof = %d", fit.DoF)
	}
}

func TestMultifitCubicRecovery(t *testing.T) {
	// The paper's Ta basis: k0 N³ + k1 N² + k2 N + k3.
	want := []float64{2e-9, 3e-6, 4e-4, 0.5}
	degrees := []int{3, 2, 1, 0}
	xs := []float64{400, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = EvalPolynomial(want, degrees, x)
	}
	fit, err := FitPolynomial(xs, ys, degrees)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if rel := math.Abs(fit.Coeff[j]-want[j]) / math.Abs(want[j]); rel > 1e-6 {
			t.Fatalf("coeff[%d] = %v want %v", j, fit.Coeff[j], want[j])
		}
	}
}

func TestMultifitTooFewObservations(t *testing.T) {
	x := linalg.NewMatrix(2, 3)
	if _, err := MultifitLinear(x, []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
}

func TestMultifitDimensionMismatch(t *testing.T) {
	x := linalg.NewMatrix(3, 2)
	if _, err := MultifitLinear(x, []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
}

func TestNormalEquationsAgreeWithQR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := linalg.NewMatrix(20, 4)
	y := make([]float64, 20)
	for i := 0; i < 20; i++ {
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = rng.NormFloat64()
	}
	qr, err := MultifitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := MultifitNormalEquations(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range qr.Coeff {
		if math.Abs(qr.Coeff[j]-ne.Coeff[j]) > 1e-8 {
			t.Fatalf("coeff[%d]: qr %v vs ne %v", j, qr.Coeff[j], ne.Coeff[j])
		}
	}
}

func TestNormalEquationsBadInput(t *testing.T) {
	if _, err := MultifitNormalEquations(linalg.NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("want ErrBadInput")
	}
	if _, err := MultifitNormalEquations(linalg.NewMatrix(3, 2), []float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("want ErrBadInput for length mismatch")
	}
}

func TestFitPolynomialLengthMismatch(t *testing.T) {
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1}, []int{1, 0}); !errors.Is(err, ErrBadInput) {
		t.Fatal("want ErrBadInput")
	}
}

func TestRSquaredConstantData(t *testing.T) {
	// Constant observations, intercept-only model: exact fit, R² = 1.
	fit, err := FitPolynomial([]float64{1, 2, 3}, []float64{5, 5, 5}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if fit.RSquared != 1 {
		t.Fatalf("R² = %v, want 1", fit.RSquared)
	}
}

// Property: fitted coefficients recover the generating polynomial when the
// data is noise-free and the system is well posed.
func TestPolynomialRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		degrees := []int{2, 1, 0}
		want := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		n := 4 + rng.Intn(10)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
			ys[i] = EvalPolynomial(want, degrees, xs[i])
		}
		fit, err := FitPolynomial(xs, ys, degrees)
		if err != nil {
			return false
		}
		for j := range want {
			if math.Abs(fit.Coeff[j]-want[j]) > 1e-6*(1+math.Abs(want[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: residuals of the LS solution are orthogonal to the column space
// (chi-squared never exceeds that of the zero model plus tolerance).
func TestLeastSquaresOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 5 + rng.Intn(15)
		cols := 1 + rng.Intn(4)
		x := linalg.NewMatrix(rows, cols)
		y := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			y[i] = rng.NormFloat64()
		}
		fit, err := MultifitLinear(x, y)
		if err != nil {
			return true // rank-deficient draw
		}
		// Perturbing any coefficient must not reduce chi-squared.
		for j := range fit.Coeff {
			for _, d := range []float64{1e-3, -1e-3} {
				c := append([]float64(nil), fit.Coeff...)
				c[j] += d
				var chisq float64
				for i := 0; i < rows; i++ {
					pred := 0.0
					for k := 0; k < cols; k++ {
						pred += x.At(i, k) * c[k]
					}
					r := y[i] - pred
					chisq += r * r
				}
				if chisq < fit.ChiSq-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Straight-line fit with unit-variance-scale residuals: compare the
	// covariance against the closed form Var(slope) = sigma^2 / S_xx.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0.1, 0.9, 2.2, 2.8, 4.1, 4.9}
	fit, err := FitPolynomial(xs, ys, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Cov == nil {
		t.Fatal("no covariance computed")
	}
	sigma2 := fit.ChiSq / float64(fit.DoF)
	mean := 2.5
	var sxx float64
	for _, x := range xs {
		sxx += (x - mean) * (x - mean)
	}
	wantVarSlope := sigma2 / sxx
	if math.Abs(fit.Cov.At(0, 0)-wantVarSlope) > 1e-12 {
		t.Fatalf("Var(slope) = %v, want %v", fit.Cov.At(0, 0), wantVarSlope)
	}
	if se := fit.StdErr(0); math.Abs(se-math.Sqrt(wantVarSlope)) > 1e-12 {
		t.Fatalf("StdErr = %v", se)
	}
	// Out-of-range StdErr is 0.
	if fit.StdErr(9) != 0 || fit.StdErr(-1) != 0 {
		t.Fatal("out-of-range StdErr should be 0")
	}
}

func TestCovarianceNilForZeroDoF(t *testing.T) {
	// Two points, two coefficients: exact interpolation, no variance info
	// — the NS-model pathology at the statistics level.
	fit, err := FitPolynomial([]float64{1, 2}, []float64{3, 5}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Cov != nil {
		t.Fatal("zero-DoF fit should have nil covariance")
	}
	if fit.StdErr(0) != 0 {
		t.Fatal("zero-DoF StdErr should be 0")
	}
}
