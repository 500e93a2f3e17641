package linalg

// axpy computes dst[t] += a*src[t] over len(dst) elements with a 4-way
// unrolled loop. src must be at least as long as dst. Each element is an
// independent multiply-then-add, so the result is bit-identical to the
// rolled loop; the explicit float64 conversions round every product before
// the add, which forbids FMA fusion on platforms that would otherwise fuse
// (the spec only permits fusion of unrounded intermediates), keeping the
// kernel bit-identical across architectures too.
//
//het:hotpath
//het:bitexact
func axpy(a float64, dst, src []float64) {
	src = src[:len(dst)]
	for len(dst) >= 4 {
		d, s := dst[:4:4], src[:4:4]
		d[0] += float64(a * s[0])
		d[1] += float64(a * s[1])
		d[2] += float64(a * s[2])
		d[3] += float64(a * s[3])
		dst, src = dst[4:], src[4:]
	}
	for i := range dst {
		dst[i] += float64(a * src[i])
	}
}

// dot returns Σ a[t]·b[t] with a single accumulator in index order, so the
// summation order (and therefore the rounding) matches the naive loop.
// Unrolling hoists the bounds checks; the dependency chain is kept so
// callers relying on reproducible sums across refactors stay byte-stable.
// Each product is rounded via float64 before it joins the sum, forbidding
// FMA fusion so the bits also match across architectures.
//
//het:hotpath
//het:bitexact
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for len(a) >= 4 {
		x, y := a[:4:4], b[:4:4]
		s += float64(x[0] * y[0])
		s += float64(x[1] * y[1])
		s += float64(x[2] * y[2])
		s += float64(x[3] * y[3])
		a, b = a[4:], b[4:]
	}
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Axpy computes dst[i] += a*src[i] over min(len(dst), len(src)) elements —
// BLAS daxpy on raw slices, exported for the distributed kernels' panel
// factorizations which work on row views of their local storage.
func Axpy(a float64, dst, src []float64) { axpy(a, dst, src) }
