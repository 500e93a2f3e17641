package hpl

import (
	"fmt"

	"hetmodel/internal/cluster"
	"hetmodel/internal/vmpi"
)

// Layout captures the 1×P block-cyclic column distribution arithmetic.
type Layout struct {
	n, nb, p  int
	numPanels int
}

// NewLayout returns the layout of an n-column matrix split into nb-wide
// panels dealt round-robin over p ranks.
func NewLayout(n, nb, p int) Layout {
	return Layout{n: n, nb: nb, p: p, numPanels: (n + nb - 1) / nb}
}

// N returns the matrix order.
func (l Layout) N() int { return l.n }

// NB returns the panel width.
func (l Layout) NB() int { return l.nb }

// P returns the rank count.
func (l Layout) P() int { return l.p }

// NumPanels returns the number of panels.
func (l Layout) NumPanels() int { return l.numPanels }

// Owner returns the rank owning global panel j.
func (l Layout) Owner(j int) int { return j % l.p }

// Width returns the column count of panel j (only the last may be partial).
func (l Layout) Width(j int) int {
	w := l.n - j*l.nb
	if w > l.nb {
		w = l.nb
	}
	return w
}

// owned returns how many of the panels [0, x) rank r owns.
func (l Layout) owned(r, x int) int {
	if x <= r {
		return 0
	}
	return (x - r + l.p - 1) / l.p
}

// LocalCols returns the number of columns rank r owns.
func (l Layout) LocalCols(r int) int { return l.TrailingLocalCols(r, -1) }

// LocalOffset returns the local column offset of global panel j on its
// owner (all earlier owned panels are full width).
func (l Layout) LocalOffset(j int) int { return (j / l.p) * l.nb }

// TrailingLocalCols returns how many of rank r's columns lie strictly right
// of panel j. Closed form (the drivers ask once per rank per panel): every
// owned panel is nb wide except possibly the matrix's last one.
func (l Layout) TrailingLocalCols(r, j int) int {
	lo := j + 1
	if lo < 0 {
		lo = 0
	}
	if lo >= l.numPanels {
		return 0
	}
	cols := (l.owned(r, l.numPanels) - l.owned(r, lo)) * l.nb
	if last := l.numPanels - 1; l.Owner(last) == r {
		cols -= l.nb - l.Width(last)
	}
	return cols
}

// panelMsg is the broadcast payload: the factored panel and its pivot rows.
// In phantom mode both fields are nil — only the modelled byte size travels.
type panelMsg struct {
	// L holds the factored panel (m×nb): U in rows [0,nb), multipliers
	// below.
	L *matrixPayload
	// Pivots are the global pivot rows chosen for each panel column.
	Pivots []int

	// refs counts the ranks still reading L; the last release returns the
	// backing buffer to the run's free list so the next panel reuses it
	// instead of allocating. Panel sizes shrink monotonically, so recycled
	// buffers always fit. nil bufs (phantom mode) makes release a no-op.
	refs int
	bufs *panelBufs
	buf  []float64
}

// panelBufs is a numeric run's free list of panel matrix buffers. The ranks
// run one at a time (vmpi coroutines), so it needs no lock.
type panelBufs struct{ free [][]float64 }

// release signals that this rank is done with the panel's matrix; each
// rank calls it once per panel.
func (pm *panelMsg) release() {
	if pm == nil || pm.bufs == nil {
		return
	}
	if pm.refs--; pm.refs == 0 {
		pm.bufs.free = append(pm.bufs.free, pm.buf)
		pm.bufs = nil
	}
}

// Run executes HPL for the configuration on the cluster and returns the
// detailed result. It is safe for concurrent use across distinct runs.
//
// A phantom, untraced run — every measurement campaign — is evaluated by the
// engine's rank state machines (engine.go); numeric and traced runs execute
// the straight-line rank body on the vmpi world. Both run on the caller's
// goroutine under vmpi.Schedule and produce bit-identical timings.
func Run(cl *cluster.Cluster, cfg cluster.Configuration, params Params) (*Result, error) {
	return run(cl, cfg, params, !params.Numeric && params.Tracer == nil)
}

// run is Run with the driver chosen by the caller, so tests can hold the
// engine against the vmpi world on the same input.
func run(cl *cluster.Cluster, cfg cluster.Configuration, params Params, useEngine bool) (*Result, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	pl, err := cl.Place(cfg)
	if err != nil {
		return nil, err
	}
	P := pl.P()
	lay := NewLayout(params.N, params.NB, P)
	if params.N < P {
		return nil, fmt.Errorf("%w: N=%d smaller than P=%d", ErrBadParams, params.N, P)
	}
	costs := newPhaseCosts(pl, cfg, params, lay)
	res := NewResultShell(params, cfg.Normalize(), P)
	if useEngine {
		err = runEngine(pl, costs, params.Bcast, res)
	} else {
		err = runWorld(pl, costs, params, res)
	}
	if err != nil {
		return nil, err
	}
	res.finalize(pl, len(cl.Classes), FlopCount(params.N))
	return res, nil
}

// runWorld executes the run on the vmpi world, one coroutine per rank: the
// driver that moves real panels (numeric mode) and feeds the tracer, and the
// oracle the engine is tested against.
func runWorld(pl *cluster.Placement, c *phaseCosts, params Params, res *Result) error {
	P, lay := pl.P(), c.lay

	// Numeric state per rank plus the pivot record (owner-written,
	// disjoint indices, read only after the world drains).
	var states []*numState
	pivots := make([][]int, lay.NumPanels())
	if params.Numeric {
		states = make([]*numState, P)
		bufs := new(panelBufs)
		for r := 0; r < P; r++ {
			states[r] = newNumState(lay, r, params.Seed)
			states[r].bufs = bufs
		}
	}

	world, err := vmpi.NewWorld(P, pl.TransferTime)
	if err != nil {
		return err
	}
	world.SetRendezvous(pl.Rendezvous)
	world.SetTracer(params.Tracer)
	barrierTag := 2*lay.NumPanels() + 16

	_, err = world.Run(func(p *vmpi.Proc) {
		rank := p.Rank()
		var st *numState
		if states != nil {
			st = states[rank]
		}
		var t RankTiming
		// Depth-1 lookahead state: a panel factored ahead of schedule and
		// whose broadcast this rank (as owner) already initiated.
		var pending *panelMsg
		pendingJ, earlySent := -1, -1
		// factor charges panel j's factorization and produces its payload.
		factor := func(j int) *panelMsg {
			dt := c.pfact(rank, j)
			p.Advance(dt)
			t.Pfact += dt
			if st == nil {
				return &panelMsg{}
			}
			payload := st.factorPanel(j)
			pivots[j] = payload.Pivots
			return payload
		}
		// charge books the trailing update of cols columns by panel j.
		charge := func(j, cols int) {
			if cols <= 0 {
				return
			}
			dt := c.update(rank, j, cols)
			p.Advance(dt)
			t.Update += dt
		}

		for j := 0; j < lay.NumPanels(); j++ {
			o := lay.Owner(j)

			var payload *panelMsg
			if rank == o {
				if pendingJ == j {
					// Factored ahead during the previous iteration.
					payload = pending
					pending, pendingJ = nil, -1
				} else {
					payload = factor(j)
				}
			}

			var pm *panelMsg
			if rank == o && earlySent == j {
				// The owner's share of this broadcast already went out.
				pm = payload
				earlySent = -1
			} else {
				data, elapsed := p.Bcast(o, j, payload, c.panelBytes(j), params.Bcast)
				t.addBcast(elapsed, c.panelRows(j))
				pm, _ = data.(*panelMsg)
			}

			// Row interchanges on every local column outside the panel.
			if cOther := c.laswpCols(rank, j); cOther > 0 {
				dt := c.laswp(rank, j, cOther)
				p.Advance(dt)
				t.Laswp += dt
				if st != nil && pm != nil {
					st.applySwaps(j, pm.Pivots)
				}
			}

			// Trailing update: dtrsm on the U12 strip plus dgemm. With
			// lookahead, the owner of the next panel updates and factors
			// it first, starts its broadcast, and only then finishes the
			// rest of the trailing update.
			ct := lay.TrailingLocalCols(rank, j)
			if c.lookaheadSplit(rank, j, ct) {
				nextJ := j + 1
				wNext := lay.Width(nextJ)
				charge(j, wNext)
				if st != nil && pm != nil {
					st.updateFiltered(j, pm, func(jj int) bool { return jj == nextJ })
				}
				pending, pendingJ = factor(nextJ), nextJ
				// Initiate the next panel's broadcast early (the owner's
				// share only; receivers pick it up at their own pace).
				_, e := p.Bcast(rank, nextJ, pending, c.panelBytes(nextJ), params.Bcast)
				t.Bcast += e
				earlySent = nextJ
				charge(j, ct-wNext)
				if st != nil && pm != nil {
					st.updateFiltered(j, pm, func(jj int) bool { return jj != nextJ })
				}
			} else {
				charge(j, ct)
				if ct > 0 && st != nil && pm != nil {
					st.update(j, pm)
				}
			}

			// This rank is done reading the panel; the last releaser hands
			// the matrix buffer back for the next panel.
			pm.release()
		}

		// Backward substitution: a right-to-left chain over panel owners
		// carrying the running right-hand side (N doubles per hop).
		for j := lay.NumPanels() - 1; j >= 0; j-- {
			if lay.Owner(j) != rank {
				continue
			}
			if j < lay.NumPanels()-1 && lay.Owner(j+1) != rank {
				_, wait := p.Recv(lay.Owner(j+1), c.chainTag(j+1))
				t.Uptrsv += wait
			}
			dt := c.uptrsv(rank, j)
			p.Advance(dt)
			t.Uptrsv += dt
			if j > 0 && lay.Owner(j-1) != rank {
				t.Uptrsv += p.Send(lay.Owner(j-1), c.chainTag(j), nil, c.chainBytes())
			}
		}

		// Absolute measurement jitter lands in the dominant (update)
		// phase.
		if off := c.offsets[rank]; off > 0 {
			p.Advance(off)
			t.Update += off
		}
		t.Wall = p.Clock()
		res.PerRank[rank] = t
		p.Barrier(barrierTag) // drain the world; not timed
	})
	if err != nil {
		return err
	}
	if params.Numeric {
		return res.validate(lay, states, pivots)
	}
	return nil
}
