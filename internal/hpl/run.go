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

// Run executes HPL for the configuration on the cluster and returns the
// detailed result. It is safe for concurrent use across distinct runs.
//
// Every run is the engine's program (engine.go) under vmpi.Schedule, on the
// caller's goroutine. A numeric run adds the arithmetic and the residual
// check, a traced run the timeline; neither changes the timings.
func Run(cl *cluster.Cluster, cfg cluster.Configuration, params Params) (*Result, error) {
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
	res := NewResultShell(params, cfg.Normalize(), P)
	h := newHPLProgram(pl, newPhaseCosts(pl, cfg, params, lay), params.Bcast, res.PerRank)
	h.e.tr = params.Tracer
	var num *numRun
	if params.Numeric {
		num = newNumRun(lay, params.Seed)
		h.num = num
	}
	if err := vmpi.Schedule(P, &h.e.ops, h.step); err != nil {
		return nil, err
	}
	if num != nil {
		if err := res.validate(lay, num); err != nil {
			return nil, err
		}
	}
	res.finalize(pl, len(cl.Classes), FlopCount(params.N))
	return res, nil
}
