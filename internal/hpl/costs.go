package hpl

import (
	"hetmodel/internal/cluster"
	"hetmodel/internal/machine"
)

// phaseCosts holds what one run's virtual-time charges depend on and
// evaluates them: every phase cost and message size of the HPL program
// (engine.go) has its one definition here.
type phaseCosts struct {
	n, nb     int
	lookahead bool
	lay       Layout
	ranks     []cluster.RankPlace
	// mulBusy applies to phases where all co-resident processes compute
	// (update, laswp); mulSolo to phases where one computes while siblings
	// yield (pfact, uptrsv). Both carry memory pressure and the run's jitter.
	mulBusy, mulSolo []float64
	// offsets is each rank's absolute measurement jitter in seconds.
	offsets []float64
}

func newPhaseCosts(pl *cluster.Placement, cfg cluster.Configuration, params Params, lay Layout) *phaseCosts {
	c := &phaseCosts{n: params.N, nb: params.NB, lookahead: params.Lookahead, lay: lay, ranks: pl.Ranks}
	c.mulBusy, c.mulSolo, c.offsets = RankMultipliers(pl, params, cfg.Key(), func(rank int) float64 {
		return 8 * float64(params.N) * float64(lay.LocalCols(rank))
	})
	return c
}

// RankMultipliers derives the static compute multipliers of each rank of a
// placed run: multiprocessing share and memory pressure (the resident set is
// constant across the run) times the seeded run-to-run noise of the run
// keyed cfgKey. busy applies to phases where all co-resident processes
// compute (update, laswp), solo to phases where one computes while its
// siblings yield (pfact, uptrsv); offsets is each rank's absolute jitter in
// seconds, charged to the update phase. matrixBytes is a rank's share of the
// matrix; a panel and params.WorkspaceBytes are added to it.
func RankMultipliers(pl *cluster.Placement, params Params, cfgKey string, matrixBytes func(rank int) float64) (busy, solo, offsets []float64) {
	P := pl.P()
	nodeBytes := pl.NodeResidentBytes(func(rank int) float64 {
		return matrixBytes(rank) + 8*float64(params.N)*float64(params.NB) + params.WorkspaceBytes
	})
	busy, solo, offsets = make([]float64, P), make([]float64, P), make([]float64, P)
	for r, rp := range pl.Ranks {
		pressure := rp.Type.PressureFactor(nodeBytes[rp.NodeID], rp.Node.MemoryBytes)
		jitter, offset := RunNoise(params.Seed, params.N, cfgKey, r, params.Noise, params.NoiseAbs)
		busy[r] = rp.Type.MultiprocFactor(rp.Resident) * pressure * jitter
		solo[r] = rp.Type.SoloFactor(rp.Resident) * pressure * jitter
		offsets[r] = offset
	}
	return busy, solo, offsets
}

// panelRows returns the row count of panel j (the trailing matrix height).
func (c *phaseCosts) panelRows(j int) int { return c.n - j*c.nb }

// pfact is the time rank spends factoring panel j.
func (c *phaseCosts) pfact(rank, j int) float64 {
	nb, m := c.lay.Width(j), c.panelRows(j)
	flops := float64(nb) * float64(nb) * (float64(m) - float64(nb)/3)
	return c.ranks[rank].Type.KernelTime(machine.KindPanel, int(flops), m, 0) * c.mulSolo[rank]
}

// panelBytes is the broadcast size of panel j: the factored panel plus its
// pivot rows.
func (c *phaseCosts) panelBytes(j int) float64 {
	nb, m := c.lay.Width(j), c.panelRows(j)
	return 8 * float64(m*nb+nb)
}

// laswpCols returns how many of rank's columns panel j's row interchanges
// touch: every local column outside the panel itself.
func (c *phaseCosts) laswpCols(rank, j int) int {
	cols := c.lay.LocalCols(rank)
	if rank == c.lay.Owner(j) {
		cols -= c.lay.Width(j)
	}
	return cols
}

// laswp is the time rank spends applying panel j's interchanges to cols
// local columns.
func (c *phaseCosts) laswp(rank, j, cols int) float64 {
	elems := 2 * c.lay.Width(j) * cols
	return c.ranks[rank].Type.KernelTime(machine.KindRowOp, elems, cols, 0) * c.mulBusy[rank]
}

// update is the time rank spends applying panel j to cols trailing columns:
// dtrsm on the U12 strip plus dgemm.
func (c *phaseCosts) update(rank, j, cols int) float64 {
	nb, m := c.lay.Width(j), c.panelRows(j)
	typ := c.ranks[rank].Type
	dtTrsm := 0.5 * typ.KernelTime(machine.KindGemm, nb, cols, nb)
	dtGemm := typ.KernelTime(machine.KindGemm, m-nb, cols, nb)
	return (dtTrsm + dtGemm) * c.mulBusy[rank]
}

// lookaheadSplit reports whether rank, holding trailing columns after panel
// j, factors panel j+1 ahead of schedule: it owns that panel and lookahead
// is on.
func (c *phaseCosts) lookaheadSplit(rank, j, trailing int) bool {
	next := j + 1
	return c.lookahead && trailing > 0 && next < c.lay.NumPanels() && c.lay.Owner(next) == rank
}

// uptrsv is the time rank spends on panel j's step of the backward
// substitution.
func (c *phaseCosts) uptrsv(rank, j int) float64 {
	nb, row0 := c.lay.Width(j), j*c.nb
	elems := nb*nb + 2*row0*nb
	rowLen := row0
	if rowLen < nb {
		rowLen = nb
	}
	return c.ranks[rank].Type.KernelTime(machine.KindRowOp, elems, rowLen, 0) * c.mulSolo[rank]
}

// chainBytes is the size of one backward-substitution hop: the running
// right-hand side, N doubles.
func (c *phaseCosts) chainBytes() float64 { return 8 * float64(c.n) }

// chainTag returns the message tag of the hop leaving panel j's owner; panel
// broadcasts use the tags [0, NumPanels).
func (c *phaseCosts) chainTag(j int) int { return c.lay.NumPanels() + j }

// addBcast books the time a rank spent in panel j's broadcast: the pivot
// rows' share of the payload counts as mxswp, the rest as bcast.
func (t *RankTiming) addBcast(elapsed float64, panelRows int) {
	pivFrac := 1.0 / float64(panelRows+1)
	t.Mxswp += elapsed * pivFrac
	t.Bcast += elapsed * (1 - pivFrac)
}
