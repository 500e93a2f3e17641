package hpl

import (
	"fmt"
	"math"

	"hetmodel/internal/linalg"
)

// matrixPayload aliases the dense matrix type used in broadcast payloads.
type matrixPayload = linalg.Matrix

// numState is the per-rank numeric storage for a real factorization run:
// the rank's block-cyclic share of the matrix, all N rows of each owned
// column block.
type numState struct {
	lay   Layout
	rank  int
	seed  int64
	local *linalg.Matrix
	// bufs, when set, is the run-shared free list panel payload buffers are
	// drawn from (and returned to by panelMsg.release).
	bufs *panelBufs
}

// newPanelMsg returns a panel payload whose m×nb matrix is drawn from the
// run's free list when one is installed. The caller overwrites every
// element, so stale recycled contents never leak.
func (st *numState) newPanelMsg(m, nb int) *panelMsg {
	pm := &panelMsg{}
	if st.bufs == nil {
		pm.L = linalg.NewMatrix(m, nb)
		return pm
	}
	pm.bufs, pm.refs = st.bufs, st.lay.P()
	if free := st.bufs.free; len(free) > 0 && cap(free[len(free)-1]) >= m*nb {
		pm.buf = free[len(free)-1][:m*nb]
		st.bufs.free = free[:len(free)-1]
	} else {
		pm.buf = make([]float64, m*nb)
	}
	pm.L = &linalg.Matrix{Rows: m, Cols: nb, Stride: nb, Data: pm.buf}
	return pm
}

func newNumState(lay Layout, rank int, seed int64) *numState {
	cols := lay.LocalCols(rank)
	st := &numState{lay: lay, rank: rank, seed: seed, local: linalg.NewMatrix(lay.N(), cols)}
	// Generate owned columns deterministically (HPL's pdmatgen role).
	n := lay.N()
	data, stride := st.local.Data, st.local.Stride
	col := make([]float64, n)
	for j := rank; j < lay.NumPanels(); j += lay.P() {
		off := lay.LocalOffset(j)
		for c := 0; c < lay.Width(j); c++ {
			genColumn(seed, j*lay.NB()+c, col)
			for i, v := range col {
				data[i*stride+off+c] = v
			}
		}
	}
	return st
}

// factorPanel performs the unblocked partial-pivoting factorization of the
// rank's panel j (which it must own) and returns the broadcast payload: the
// factored m×nb panel and the global pivot rows. Row swaps are applied to
// the panel columns only; other columns are swapped in the laswp phase.
func (st *numState) factorPanel(j int) *panelMsg {
	lay := st.lay
	nb := lay.Width(j)
	off := lay.LocalOffset(j)
	row0 := j * lay.NB()
	n := lay.N()
	m := n - row0
	pivots := make([]int, nb)
	data, stride := st.local.Data, st.local.Stride

	// panelRow returns the panel's nb-wide slice of local row i.
	panelRow := func(i int) []float64 {
		return data[i*stride+off : i*stride+off+nb]
	}
	for k := 0; k < nb; k++ {
		gr := row0 + k
		lc := off + k
		// Partial pivoting over rows gr..N-1 of this column.
		piv := gr
		maxv := math.Abs(data[gr*stride+lc])
		for i := gr + 1; i < n; i++ {
			if v := math.Abs(data[i*stride+lc]); v > maxv {
				maxv, piv = v, i
			}
		}
		pivots[k] = piv
		if piv != gr {
			// Swap within the panel block only.
			rg, rp := panelRow(gr), panelRow(piv)
			for c, v := range rg {
				rg[c], rp[c] = rp[c], v
			}
		}
		d := data[gr*stride+lc]
		if d == 0 {
			// Singular column: keep zeros (multipliers stay zero), as
			// HPL would produce a failed residual rather than crash.
			continue
		}
		inv := 1 / d
		for i := gr + 1; i < n; i++ {
			data[i*stride+lc] *= inv
		}
		// Rank-1 update of the remaining panel columns, one row at a time.
		urow := panelRow(gr)
		for i := gr + 1; i < n; i++ {
			ri := panelRow(i)
			lik := ri[k]
			if lik == 0 {
				continue
			}
			linalg.Axpy(-lik, ri[k+1:], urow[k+1:])
		}
	}

	// Copy the factored panel (rows row0.., panel columns) for broadcast.
	pm := st.newPanelMsg(m, nb)
	pm.Pivots = pivots
	for i := 0; i < m; i++ {
		copy(pm.L.RowView(i), panelRow(row0+i))
	}
	return pm
}

// applySwaps applies panel j's pivots to every local column block except
// panel j itself (the laswp phase).
func (st *numState) applySwaps(j int, pivots []int) {
	lay := st.lay
	row0 := j * lay.NB()
	data, stride := st.local.Data, st.local.Stride
	for jj := st.rank; jj < lay.NumPanels(); jj += lay.P() {
		if jj == j {
			continue
		}
		off := lay.LocalOffset(jj)
		w := lay.Width(jj)
		for k, piv := range pivots {
			gr := row0 + k
			if piv == gr {
				continue
			}
			rg := data[gr*stride+off : gr*stride+off+w]
			rp := data[piv*stride+off : piv*stride+off+w]
			for c, v := range rg {
				rg[c], rp[c] = rp[c], v
			}
		}
	}
}

// update applies panel j's factors to every trailing block of the rank.
func (st *numState) update(j int, pm *panelMsg) {
	st.updateFiltered(j, pm, func(int) bool { return true })
}

// updateFiltered applies panel j's factors (U12 ← L11⁻¹·A12 then
// A22 ← A22 − L2·U12) to the rank's trailing blocks selected by keep.
func (st *numState) updateFiltered(j int, pm *panelMsg, keep func(jj int) bool) {
	lay := st.lay
	nb := lay.Width(j)
	row0 := j * lay.NB()
	m := lay.N() - row0
	// L11: unit lower triangle of the first nb panel rows.
	l11 := pm.L.Slice(0, nb, 0, nb)
	var l2 *linalg.Matrix
	if m > nb {
		l2 = pm.L.Slice(nb, m, 0, nb)
	}
	for jj := st.rank; jj < lay.NumPanels(); jj += lay.P() {
		if jj <= j || !keep(jj) {
			continue
		}
		off := lay.LocalOffset(jj)
		w := lay.Width(jj)
		a12 := st.local.Slice(row0, row0+nb, off, off+w)
		if err := linalg.SolveLowerUnit(l11, a12); err != nil {
			panic(fmt.Sprintf("hpl: trsm failed: %v", err))
		}
		if l2 != nil {
			a22 := st.local.Slice(row0+nb, lay.N(), off, off+w)
			if err := linalg.MulAdd(-1, l2, a12, a22); err != nil {
				panic(fmt.Sprintf("hpl: gemm failed: %v", err))
			}
		}
	}
}

// validate reassembles the distributed packed LU, solves against the
// generated right-hand side, and records the solution and HPL residual in
// the result. It runs on the host after the virtual world drains.
func (r *Result) validate(lay Layout, states []*numState, pivots [][]int) error {
	n := lay.N()
	full := linalg.NewMatrix(n, n)
	for rank, st := range states {
		data, stride := st.local.Data, st.local.Stride
		for j := rank; j < lay.NumPanels(); j += lay.P() {
			off := lay.LocalOffset(j)
			for c := 0; c < lay.Width(j); c++ {
				gc := j*lay.NB() + c
				for i := 0; i < n; i++ {
					full.Data[i*n+gc] = data[i*stride+off+c]
				}
			}
		}
	}
	// Apply the recorded pivots to the right-hand side in panel order.
	b := make([]float64, n)
	genRHS(r.Params.Seed, b)
	pb := append([]float64(nil), b...)
	for j := 0; j < lay.NumPanels(); j++ {
		row0 := j * lay.NB()
		for k, piv := range pivots[j] {
			gr := row0 + k
			if piv != gr {
				pb[gr], pb[piv] = pb[piv], pb[gr]
			}
		}
	}
	y, err := linalg.SolveLowerUnitVec(full, pb)
	if err != nil {
		return fmt.Errorf("hpl: forward substitution: %w", err)
	}
	x, err := linalg.SolveUpperVec(full, y)
	if err != nil {
		return fmt.Errorf("hpl: backward substitution: %w", err)
	}
	// Regenerate the original matrix for the residual check.
	a := linalg.NewMatrix(n, n)
	col := make([]float64, n)
	for gc := 0; gc < n; gc++ {
		genColumn(r.Params.Seed, gc, col)
		for i, v := range col {
			a.Data[i*n+gc] = v
		}
	}
	resid, err := linalg.HPLResidual(a, x, b)
	if err != nil {
		return fmt.Errorf("hpl: residual: %w", err)
	}
	r.Solution = x
	r.Residual = resid
	return nil
}
