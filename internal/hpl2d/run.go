package hpl2d

import (
	"fmt"

	"hetmodel/internal/cluster"
	"hetmodel/internal/hpl"
	"hetmodel/internal/linalg"
	"hetmodel/internal/machine"
	"hetmodel/internal/vmpi"
)

// Params configures a 2D run: the shared HPL parameters plus the grid
// shape. Pr×Pc must equal the configuration's total process count.
type Params struct {
	hpl.Params
	Pr, Pc int
}

// Result reuses the HPL result layout (same timing buckets; on a 2D grid
// Mxswp and Laswp are real communication).
type Result = hpl.Result

// panelMsg is the row-broadcast payload: each grid row's share of the
// factored panel plus the pivot rows.
type panelMsg struct {
	L      *linalg.Matrix
	Pivots []int
}

// pivotCand is the column-allreduce payload for pivot selection.
type pivotCand struct {
	Abs float64
	Row int
}

// Run executes the 2D-grid LU factorization for the configuration.
func Run(cl *cluster.Cluster, cfg cluster.Configuration, params Params) (*Result, error) {
	params.Params = hpl.FillDefaults(params.Params)
	if err := hpl.ValidateParams(params.Params); err != nil {
		return nil, err
	}
	pl, err := cl.Place(cfg)
	if err != nil {
		return nil, err
	}
	P := pl.P()
	if params.Pr <= 0 || params.Pc <= 0 || params.Pr*params.Pc != P {
		return nil, fmt.Errorf("%w: grid %dx%d does not match P=%d", hpl.ErrBadParams, params.Pr, params.Pc, P)
	}
	g := NewGrid(params.N, params.NB, params.Pr, params.Pc)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", hpl.ErrBadParams, err)
	}

	nodeBytes := pl.NodeResidentBytes(func(rank int) float64 {
		row, col := g.Coords(rank)
		return 8*float64(g.LocalRows(row))*float64(g.LocalCols(col)) +
			8*float64(params.N)*float64(params.NB) +
			params.WorkspaceBytes
	})
	mulBusy := make([]float64, P)
	mulSolo := make([]float64, P)
	cfgKey := fmt.Sprintf("2d%dx%d:%s", params.Pr, params.Pc, cfg.Key())
	for r := 0; r < P; r++ {
		rp := pl.Ranks[r]
		pressure := rp.Type.PressureFactor(nodeBytes[rp.NodeID], rp.Node.MemoryBytes)
		jitter, _ := hpl.RunNoise(params.Seed, params.N, cfgKey, r, params.Noise, params.NoiseAbs)
		mulBusy[r] = rp.Type.MultiprocFactor(rp.Resident) * pressure * jitter
		mulSolo[r] = rp.Type.SoloFactor(rp.Resident) * pressure * jitter
	}

	var states []*numState
	if params.Numeric {
		states = make([]*numState, P)
		for r := 0; r < P; r++ {
			row, col := g.Coords(r)
			states[r] = newNumState(g, row, col, params.Seed)
		}
	}
	pivotRecord := make([][]int, g.Panels())

	world, err := vmpi.NewWorld(P, pl.TransferTime)
	if err != nil {
		return nil, err
	}
	world.SetRendezvous(pl.Rendezvous)
	world.SetTracer(params.Tracer)
	res := hpl.NewResultShell(params.Params, cfg.Normalize(), P)

	// Tag windows: each panel J owns [J*tagStride, (J+1)*tagStride).
	const tagStride = 1 << 12
	chainBase := g.Panels() * tagStride

	_, err = world.Run(func(p *vmpi.Proc) {
		rank := p.Rank()
		rp := pl.Ranks[rank]
		myRow, myCol := g.Coords(rank)
		cm := comm{p: p}
		var st *numState
		if states != nil {
			st = states[rank]
		}
		var t hpl.RankTiming

		colMembers := make([]int, g.Pr())
		rowMembers := make([]int, g.Pc())
		for r := 0; r < g.Pr(); r++ {
			colMembers[r] = g.Rank(r, myCol)
		}
		for c := 0; c < g.Pc(); c++ {
			rowMembers[c] = g.Rank(myRow, c)
		}

		for J := 0; J < g.Panels(); J++ {
			col0 := J * params.NB
			nb := params.N - col0
			if nb > params.NB {
				nb = params.NB
			}
			pc0 := g.ColOwner(col0)
			base := J * tagStride

			var pivots []int
			var myPanel *panelMsg

			if myCol == pc0 {
				pivots = make([]int, nb)
				for k := 0; k < nb; k++ {
					gr := col0 + k
					tagK := base + k*8
					// Local pivot candidate over owned rows >= gr.
					cand := pivotCand{Abs: -1, Row: -1}
					if st != nil {
						cand = st.localPivot(gr, col0+k)
					} else {
						// Deterministic pseudo-candidate: spread winners
						// across grid rows so swap traffic is realistic.
						if g.RowsBelow(myRow, gr) > 0 {
							f, _ := hpl.RunNoise(params.Seed, gr, cfgKey, myRow, 0.5, 0)
							cand = pivotCand{Abs: f, Row: firstOwnedRow(g, myRow, gr)}
						}
					}
					win, e := cm.allreduceMaxPivot(colMembers, tagK, cand, 16)
					t.Mxswp += e
					piv := win.Row
					if piv < 0 {
						piv = gr
					}
					pivots[k] = piv
					// Swap rows gr <-> piv within the panel.
					if piv != gr {
						og, op := g.RowOwner(gr), g.RowOwner(piv)
						switch {
						case og == op && myRow == og:
							if st != nil {
								st.swapLocalRows(gr, piv, col0, col0+nb)
							}
							dt := rp.Type.KernelTime(machine.KindRowOp, 2*nb, nb, 0) * mulSolo[rank]
							p.Advance(dt)
							t.Mxswp += dt
						case myRow == og:
							var seg any
							if st != nil {
								seg = st.rowSegment(gr, col0, col0+nb)
							}
							got, e := cm.sendrecvSwap(g.Rank(op, myCol), tagK+2, seg, 8*float64(nb))
							t.Mxswp += e
							if st != nil {
								st.setRowSegment(gr, col0, got.([]float64))
							}
						case myRow == op:
							var seg any
							if st != nil {
								seg = st.rowSegment(piv, col0, col0+nb)
							}
							got, e := cm.sendrecvSwap(g.Rank(og, myCol), tagK+2, seg, 8*float64(nb))
							t.Mxswp += e
							if st != nil {
								st.setRowSegment(piv, col0, got.([]float64))
							}
						}
					}
					// Broadcast the pivot row segment (cols k..nb of the
					// panel) down the column, then scale and rank-1 update.
					var rowSeg any
					if st != nil && myRow == g.RowOwner(gr) {
						rowSeg = st.rowSegment(gr, col0+k, col0+nb)
					}
					rowSeg, e = cm.bcast(vmpi.BcastBinomial, colMembers, g.RowOwner(gr), tagK+4, rowSeg, 8*float64(nb-k))
					t.Mxswp += e
					below := g.RowsBelow(myRow, gr+1)
					if below > 0 {
						if st != nil {
							st.panelEliminate(gr, col0+k, col0+nb, rowSeg.([]float64))
						}
						flops := float64(below) * float64(nb-k) * 2
						dt := rp.Type.KernelTime(machine.KindPanel, int(flops), below, 0) * mulSolo[rank]
						p.Advance(dt)
						t.Pfact += dt
					}
				}
				rows := g.RowsBelow(myRow, col0)
				myPanel = &panelMsg{Pivots: pivots}
				if st != nil {
					myPanel.L = st.extractPanel(col0, nb)
				}
				_ = rows
				if myRow == 0 {
					pivotRecord[J] = pivots
				}
			}

			// Panel broadcast along the process row.
			{
				rows := g.RowsBelow(myRow, col0)
				bytes := 8 * float64(rows*nb+nb)
				data, e := cm.bcast(vmpi.BcastRing, rowMembers, pc0, base+900, myPanel, bytes)
				t.Bcast += e
				if pm, ok := data.(*panelMsg); ok && pm != nil {
					myPanel = pm
					pivots = pm.Pivots
				}
			}

			// Row interchanges on all local columns outside the panel.
			myTrailing := g.ColsRight(myCol, col0+nb)
			swapWidth := g.LocalCols(myCol)
			if myCol == pc0 {
				swapWidth -= nb
			}
			for k := 0; k < nb && pivots != nil; k++ {
				gr := col0 + k
				piv := pivots[k]
				if piv == gr || swapWidth <= 0 {
					continue
				}
				og, op := g.RowOwner(gr), g.RowOwner(piv)
				tagK := base + 910 + k*2
				switch {
				case og == op && myRow == og:
					if st != nil {
						st.swapLocalRowsOutsidePanel(gr, piv, col0, col0+nb)
					}
					dt := rp.Type.KernelTime(machine.KindRowOp, 2*swapWidth, swapWidth, 0) * mulBusy[rank]
					p.Advance(dt)
					t.Laswp += dt
				case myRow == og:
					var seg any
					if st != nil {
						seg = st.rowOutsidePanel(gr, col0, col0+nb)
					}
					got, e := cm.sendrecvSwap(g.Rank(op, myCol), tagK, seg, 8*float64(swapWidth))
					t.Laswp += e
					if st != nil {
						st.setRowOutsidePanel(gr, col0, col0+nb, got.([]float64))
					}
				case myRow == op:
					var seg any
					if st != nil {
						seg = st.rowOutsidePanel(piv, col0, col0+nb)
					}
					got, e := cm.sendrecvSwap(g.Rank(og, myCol), tagK, seg, 8*float64(swapWidth))
					t.Laswp += e
					if st != nil {
						st.setRowOutsidePanel(piv, col0, col0+nb, got.([]float64))
					}
				}
			}

			// U12 on the diagonal process row, broadcast down each column.
			rd := g.RowOwner(col0)
			var u12 any
			if myRow == rd && myTrailing > 0 {
				if st != nil && myPanel != nil && myPanel.L != nil {
					u12 = st.computeU12(col0, nb, myPanel.L)
				}
				dt := 0.5 * rp.Type.KernelTime(machine.KindGemm, nb, myTrailing, nb) * mulBusy[rank]
				p.Advance(dt)
				t.Update += dt
			}
			if myTrailing > 0 && g.Pr() > 1 {
				var e float64
				u12, e = cm.bcast(vmpi.BcastBinomial, colMembers, rd, base+950, u12, 8*float64(nb*myTrailing))
				t.Bcast += e
			}

			// Trailing update: local rows below the panel x local trailing
			// columns.
			m2 := g.RowsBelow(myRow, col0+nb)
			if m2 > 0 && myTrailing > 0 {
				if st != nil && myPanel != nil && myPanel.L != nil {
					st.update(col0, nb, myPanel.L, u12.(*linalg.Matrix))
				}
				dt := rp.Type.KernelTime(machine.KindGemm, m2, myTrailing, nb) * mulBusy[rank]
				p.Advance(dt)
				t.Update += dt
			}
		}

		// Backward-substitution chain over diagonal-block owners.
		for J := g.Panels() - 1; J >= 0; J-- {
			col0 := J * params.NB
			owner := g.Rank(g.RowOwner(col0), g.ColOwner(col0))
			if owner != rank {
				continue
			}
			nb := params.N - col0
			if nb > params.NB {
				nb = params.NB
			}
			if J < g.Panels()-1 {
				prev := g.Rank(g.RowOwner(col0+params.NB), g.ColOwner(col0+params.NB))
				if prev != rank {
					_, wait := p.Recv(prev, chainBase+J+1)
					t.Uptrsv += wait
				}
			}
			elems := nb*nb + 2*col0*nb
			rowLen := col0
			if rowLen < nb {
				rowLen = nb
			}
			dt := rp.Type.KernelTime(machine.KindRowOp, elems, rowLen, 0) * mulSolo[rank]
			p.Advance(dt)
			t.Uptrsv += dt
			if J > 0 {
				next := g.Rank(g.RowOwner(col0-params.NB), g.ColOwner(col0-params.NB))
				if next != rank {
					t.Uptrsv += p.Send(next, chainBase+J, nil, 8*float64(params.N))
				}
			}
		}

		t.Wall = p.Clock()
		res.PerRank[rank] = t
		p.Barrier(chainBase + g.Panels() + 8)
	})
	if err != nil {
		return nil, err
	}

	hpl.FinalizeResult(res, pl, len(cl.Classes), hpl.FlopCount(params.N))
	if params.Numeric {
		if err := validate(res, g, states, pivotRecord); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// firstOwnedRow returns the smallest global row >= from owned by grid row.
func firstOwnedRow(g Grid, row, from int) int {
	for b := from / g.NB(); b < g.Panels(); b++ {
		if b%g.Pr() != row {
			continue
		}
		lo := b * g.NB()
		if lo < from {
			lo = from
		}
		hi := (b + 1) * g.NB()
		if hi > g.N() {
			hi = g.N()
		}
		if lo < hi {
			return lo
		}
	}
	return -1
}
