package linalg

import (
	"runtime"
	"sync"
)

// gemmBlock is the cache-blocking factor for MulAdd. 64 keeps three
// 64x64 float64 tiles (~96 KiB) near L2 on typical hardware.
const gemmBlock = 64

// packPool recycles the B-tile packing buffers so steady-state MulAdd calls
// allocate nothing.
var packPool = sync.Pool{
	New: func() any {
		buf := make([]float64, gemmBlock*gemmBlock)
		return &buf
	},
}

// MulAdd computes C += alpha * A * B using cache-blocked, panel-packed
// loops. A is m-by-k, B is k-by-n, C is m-by-n.
//
// Terms still accumulate into each C element in increasing-p order exactly
// as the reference kernel does, so the result is bit-identical to
// refMulAdd up to the associativity the two share (element order is
// preserved; see TestMulAddMatchesReference).
func MulAdd(alpha float64, a, b, c *Matrix) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return ErrShape
	}
	if alpha == 0 {
		return nil
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return nil
	}
	packPtr := packPool.Get().(*[]float64)
	pack := *packPtr
	// Loop order p0 -> j0 -> i0: each B tile is packed contiguously once
	// and then streamed by every row block of A, while each C element still
	// receives its rank-1 contributions in increasing p order.
	for p0 := 0; p0 < k; p0 += gemmBlock {
		p1 := min(p0+gemmBlock, k)
		for j0 := 0; j0 < n; j0 += gemmBlock {
			j1 := min(j0+gemmBlock, n)
			pw := j1 - j0
			for p := p0; p < p1; p++ {
				copy(pack[(p-p0)*pw:(p-p0+1)*pw], b.Data[p*b.Stride+j0:p*b.Stride+j1])
			}
			for i0 := 0; i0 < m; i0 += gemmBlock {
				i1 := min(i0+gemmBlock, m)
				gemmTile(alpha, a, c, pack, i0, i1, p0, p1, j0, j1)
			}
		}
	}
	packPool.Put(packPtr)
	return nil
}

// gemmTile accumulates the packed B tile's contribution into the
// (i0:i1, j0:j1) tile of C: for every row of A, one unrolled AXPY per
// nonzero A element against the packed row of B.
func gemmTile(alpha float64, a, c *Matrix, pack []float64, i0, i1, p0, p1, j0, j1 int) {
	pw := j1 - j0
	for i := i0; i < i1; i++ {
		arow := a.Data[i*a.Stride+p0 : i*a.Stride+p1]
		crow := c.Data[i*c.Stride+j0 : i*c.Stride+j1]
		for p, ap := range arow {
			aip := alpha * ap
			if aip == 0 {
				continue
			}
			axpy(aip, crow, pack[p*pw:(p+1)*pw])
		}
	}
}

// Mul returns A*B as a new matrix.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, ErrShape
	}
	c := NewMatrix(a.Rows, b.Cols)
	if err := MulAdd(1, a, b, c); err != nil {
		return nil, err
	}
	return c, nil
}

// ParallelMulAdd computes C += alpha*A*B splitting row blocks of C across
// workers goroutines (workers <= 0 selects GOMAXPROCS). Distinct goroutines
// write disjoint row ranges of C, so no synchronization of C is needed.
func ParallelMulAdd(alpha float64, a, b, c *Matrix, workers int) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return ErrShape
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := a.Rows
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		return MulAdd(alpha, a, b, c)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r0 := w * m / workers
		r1 := (w + 1) * m / workers
		if r0 == r1 {
			continue
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			av := a.Slice(r0, r1, 0, a.Cols)
			cv := c.Slice(r0, r1, 0, c.Cols)
			_ = MulAdd(alpha, av, b, cv) // shapes verified above
		}(r0, r1)
	}
	wg.Wait()
	return nil
}

// MulVec returns A*x for a vector x of length A.Cols.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, ErrShape
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		y[i] = dot(a.RowView(i), x)
	}
	return y, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
