// Package hpl reproduces the High-Performance Linpack benchmark on the
// simulated cluster: a right-looking LU factorization with partial row
// pivoting on a 1-by-P block-cyclic column distribution (the process grid
// the paper evaluates), followed by backward substitution, with the detailed
// per-phase timers the paper's models are built from (HPL's
// -DHPL_DETAILED_TIMING plus the bcast timer the authors added).
//
// Two execution modes:
//
//   - Numeric: ranks hold real float64 panels, factorize them, and the
//     solution is residual-checked (validates the algorithm). Ranks run as
//     goroutines on the internal/vmpi runtime, which moves the panels.
//   - Phantom: only the flop/byte-accurate virtual clocks advance (makes the
//     paper's 486-run measurement campaigns cheap). Nothing moves and each
//     rank's control flow depends only on (rank, panel), so a single-threaded
//     engine (engine.go) evaluates the same clock recurrence on the caller's
//     goroutine; a traced phantom run stays on vmpi, which feeds the tracer.
//
// Both drivers charge every phase through one set of cost functions
// (costs.go) in the same order, so their timings are bit-identical. Virtual
// time comes from internal/machine (kernel times, multiprocessing and
// memory-pressure factors) and internal/simnet (transfer times).
package hpl

import (
	"errors"
	"fmt"
	"math"

	"hetmodel/internal/cluster"
	"hetmodel/internal/vmpi"
)

// ErrBadParams reports invalid benchmark parameters.
var ErrBadParams = errors.New("hpl: invalid parameters")

// DefaultNB is the panel block size used throughout the reproduction.
const DefaultNB = 64

// Params configures one HPL run.
type Params struct {
	// N is the matrix order.
	N int
	// NB is the panel width; 0 selects DefaultNB.
	NB int
	// Numeric enables real arithmetic and the residual check.
	Numeric bool
	// Bcast selects the panel broadcast algorithm (default ring, as HPL).
	Bcast vmpi.BcastAlg
	// Seed drives the deterministic matrix generator in numeric mode.
	Seed int64
	// WorkspaceBytes is the per-process non-matrix memory footprint used
	// by the memory-pressure model; 0 selects DefaultWorkspaceBytes.
	WorkspaceBytes float64
	// Noise is the relative amplitude of the deterministic run-to-run
	// variability applied to each rank's compute rate (daemons, cache
	// state, page placement — the measurement noise real campaigns see,
	// and the reason the paper's zero-degrees-of-freedom NS fits
	// extrapolate catastrophically). 0 selects DefaultNoise; negative
	// disables noise. The perturbation is a pure function of
	// (Seed, N, configuration, rank), so runs remain reproducible.
	Noise float64
	// NoiseAbs is the absolute run-to-run jitter in seconds added to each
	// rank's compute time (scheduler interventions, page faults —
	// independent of run length, so it dominates short runs exactly as it
	// does on real hardware). 0 selects DefaultNoiseAbs; negative
	// disables.
	NoiseAbs float64
	// Tracer, when non-nil, records every compute span and message of the
	// run for timeline inspection (vmpi.Tracer.WriteChromeTrace).
	Tracer *vmpi.Tracer
	// Lookahead enables depth-1 panel lookahead: the owner of the next
	// panel updates and factorizes it before finishing the rest of its
	// trailing update, and starts the broadcast early. This deliberately
	// violates the paper's "ignore the overlap of computation and
	// communication" assumption (§3.1) — the ablation that quantifies what
	// the assumption costs.
	Lookahead bool
}

// DefaultNoise is the default relative compute-time jitter (±2%).
const DefaultNoise = 0.02

// DefaultNoiseAbs is the default absolute per-rank jitter (±0.12 s).
const DefaultNoiseAbs = 0.12

// DefaultWorkspaceBytes approximates the per-process footprint beyond the
// local matrix: MPI buffers, code, OS share (≈24 MiB, tuned so that a lone
// Athlon process degrades at N = 10000 but not at 9600, as in Figure 3(a)).
const DefaultWorkspaceBytes = 24 * 1024 * 1024

// FillDefaults returns params with zero fields replaced by defaults; shared
// with the other applications reusing this parameter set.
func FillDefaults(p Params) Params { return p.withDefaults() }

// ValidateParams checks the shared parameter constraints.
func ValidateParams(p Params) error { return p.validate() }

func (p Params) withDefaults() Params {
	if p.NB == 0 {
		p.NB = DefaultNB
	}
	if p.WorkspaceBytes == 0 {
		p.WorkspaceBytes = DefaultWorkspaceBytes
	}
	p.Noise = noiseAmplitude(p.Noise, DefaultNoise)
	p.NoiseAbs = noiseAmplitude(p.NoiseAbs, DefaultNoiseAbs)
	return p
}

// noiseAmplitude resolves a noise field: 0 selects def, a negative value
// disables. Non-finite values pass through for validate to reject.
func noiseAmplitude(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0 && !math.IsInf(v, -1):
		return 0
	}
	return v
}

func (p Params) validate() error {
	if p.N <= 0 {
		return fmt.Errorf("%w: N = %d", ErrBadParams, p.N)
	}
	if p.NB < 0 || p.WorkspaceBytes < 0 {
		return fmt.Errorf("%w: negative NB or workspace", ErrBadParams)
	}
	for _, v := range [...]float64{p.Noise, p.NoiseAbs, p.WorkspaceBytes} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite noise or workspace %v", ErrBadParams, v)
		}
	}
	if p.Bcast != vmpi.BcastRing && p.Bcast != vmpi.BcastBinomial {
		return fmt.Errorf("%w: unknown broadcast algorithm %v", ErrBadParams, p.Bcast)
	}
	return nil
}

// RankTiming is the detailed per-rank phase breakdown, mirroring HPL's
// detailed timing items (Figure 4 of the paper). All values are virtual
// seconds.
type RankTiming struct {
	// Pfact is panel factorization compute (rfact − mxswp in the paper's
	// accounting: recursion overhead is folded into the panel kernel).
	Pfact float64
	// Mxswp is the pivot-bookkeeping communication inside rfact.
	Mxswp float64
	// Bcast is panel broadcast communication including wait time.
	Bcast float64
	// Laswp is the row-interchange phase (classified as communication by
	// the paper even though it moves local memory).
	Laswp float64
	// Update is the trailing-matrix update compute (dtrsm + dgemm),
	// excluding laswp.
	Update float64
	// Uptrsv is the backward-substitution phase (compute and its chain
	// communication; the paper folds the whole phase into Ta).
	Uptrsv float64
	// Wall is the rank's total virtual time.
	Wall float64
}

// Ta returns the paper's computation time:
// (rfact − mxswp) + (update − laswp) + uptrsv.
func (t RankTiming) Ta() float64 { return t.Pfact + t.Update + t.Uptrsv }

// Tc returns the paper's communication time: mxswp + laswp + bcast.
func (t RankTiming) Tc() float64 { return t.Mxswp + t.Laswp + t.Bcast }

// add accumulates phase durations.
func (t *RankTiming) add(other RankTiming) {
	t.Pfact += other.Pfact
	t.Mxswp += other.Mxswp
	t.Bcast += other.Bcast
	t.Laswp += other.Laswp
	t.Update += other.Update
	t.Uptrsv += other.Uptrsv
}

// ClassTiming aggregates the critical (slowest) rank of one PE class, the
// quantity the paper's per-PE model Ti = Tai + Tci describes.
type ClassTiming struct {
	// Used reports whether the class hosts any rank in this run.
	Used bool
	// Ta and Tc are the maxima over the class's ranks.
	Ta, Tc float64
	// Wall is the maximum rank wall time in the class.
	Wall float64
}

// Result is the outcome of one HPL run.
type Result struct {
	Params   Params
	Config   cluster.Configuration
	P        int
	PerRank  []RankTiming
	PerClass []ClassTiming
	// WallTime is the benchmark execution time (max over ranks).
	WallTime float64
	// Gflops is the HPL performance figure (2N³/3 + 3N²/2)/t/1e9.
	Gflops float64
	// Residual is the HPL-scaled residual in numeric mode, NaN otherwise.
	Residual float64
	// Solution is the solve result in numeric mode (nil otherwise).
	Solution []float64
}

// FlopCount returns the nominal HPL operation count for order n.
func FlopCount(n int) float64 {
	nf := float64(n)
	return 2.0/3.0*nf*nf*nf + 1.5*nf*nf
}

// NewResultShell allocates a Result with an empty per-rank table (used by
// the distributed applications sharing this result layout).
func NewResultShell(p Params, cfg cluster.Configuration, nRanks int) *Result {
	return newResult(p, cfg, nRanks)
}

func newResult(p Params, cfg cluster.Configuration, nRanks int) *Result {
	return &Result{
		Params:   p,
		Config:   cfg,
		P:        nRanks,
		PerRank:  make([]RankTiming, nRanks),
		Residual: math.NaN(),
	}
}

// FinalizeResult computes the aggregates once PerRank is filled, reporting
// performance against the given nominal operation count.
func FinalizeResult(r *Result, pl *cluster.Placement, classes int, flops float64) {
	r.finalize(pl, classes, flops)
}

// finalize computes aggregates once PerRank is filled.
func (r *Result) finalize(pl *cluster.Placement, classes int, flops float64) {
	r.PerClass = make([]ClassTiming, classes)
	for rank, t := range r.PerRank {
		if t.Wall > r.WallTime {
			r.WallTime = t.Wall
		}
		ci := pl.Ranks[rank].Class
		ct := &r.PerClass[ci]
		ct.Used = true
		if ta := t.Ta(); ta > ct.Ta {
			ct.Ta = ta
		}
		if tc := t.Tc(); tc > ct.Tc {
			ct.Tc = tc
		}
		if t.Wall > ct.Wall {
			ct.Wall = t.Wall
		}
	}
	if r.WallTime > 0 {
		r.Gflops = flops / r.WallTime / 1e9
	}
}
