package core

import (
	"math"
	"sync/atomic"

	"hetmodel/internal/cluster"
	"hetmodel/internal/lsq"
)

// Evaluator is a ModelSet compiled for one problem size n: every
// candidate-independent subexpression of the estimation path — the N-T
// estimates of the single-PE bins, the P-T reference polynomials Ra(n) and
// Rc(n), the products of those with the fitted constants, the adjustment
// transforms and their applicability per bin — is hoisted into dense
// [class][M] tables at compile time, so scoring a candidate is a handful of
// float operations with zero allocations and no map lookups.
//
// The compiled arithmetic preserves the exact operation order and rounding
// of ModelSet.Estimate (only already-constant subexpressions are folded),
// so an Evaluator scores bit-identically to the model set it was compiled
// from. The evaluator snapshots the model set: mutations made to the
// ModelSet after Compile are not reflected.
type Evaluator struct {
	classes int
	n       float64
	// nt[class][m] is the N-T estimate of the single-PE bin
	// {class, P: m, M: m}; NaN marks a missing bin.
	nt [][]float64
	// pt[class][m] is the compiled P-T entry of bin {class, m}.
	pt [][]ptEval
	// mem is the model set's cluster descriptor compiled for n (nil without).
	mem *memRule
	// tcache is the one-slot grid-tables cache (see Evaluator.tables). It is
	// the evaluator's only mutable state; recomputing on a racing miss is
	// idempotent, so the model snapshot semantics above are unaffected.
	tcache atomic.Pointer[gridTablesEntry]
}

// ptEval is one compiled P-T bin. With the precomputed fields, the model's
//
//	Ta(n,P) = TaScale·(Ka0·Ra(n)/P + Ka1)
//	Tc(n,P) = TcScale·(Kc0·P·Rc(n) + Kc1·Rc(n)/P + Kc2)
//
// becomes taScale·(a0/P + ka1) and tcScale·(kc0·P·rc + c1/P + kc2), where
// a0 = Ka0·Ra(n) and c1 = Kc1·Rc(n) are folded (each a single
// multiplication of the same operands the uncompiled path performs, so the
// per-candidate float sequence is unchanged).
type ptEval struct {
	ok               bool
	a0, ka1, taScale float64
	kc0, rc, c1, kc2 float64
	tcScale          float64
	adjust           bool // class has a §4.1 transform and M >= AdjustMinM
	adjA, adjB       float64
	extrapAll        bool // composed model: every P extrapolates
	maxFitP          int  // fitted models extrapolate beyond this P
}

// Compile builds the evaluator for problem size n. Compilation is cheap —
// O(model bins) — so per-query compilation is fine; hot loops that score
// many candidates at one size should compile once and reuse.
func (ms *ModelSet) Compile(n float64) *Evaluator {
	ev := &Evaluator{classes: ms.Classes, n: n, mem: compileMemRule(ms.Cluster, n)}
	maxNT := make([]int, ms.Classes)
	maxPT := make([]int, ms.Classes)
	for k := range ms.NT {
		if k.Class >= 0 && k.Class < ms.Classes && k.P == k.M && k.M > maxNT[k.Class] {
			maxNT[k.Class] = k.M
		}
	}
	for k := range ms.PT {
		if k.Class >= 0 && k.Class < ms.Classes && k.M > maxPT[k.Class] {
			maxPT[k.Class] = k.M
		}
	}
	ev.nt = make([][]float64, ms.Classes)
	ev.pt = make([][]ptEval, ms.Classes)
	for ci := 0; ci < ms.Classes; ci++ {
		row := make([]float64, maxNT[ci]+1)
		for i := range row {
			row[i] = math.NaN()
		}
		ev.nt[ci] = row
		ev.pt[ci] = make([]ptEval, maxPT[ci]+1)
	}
	for k, m := range ms.NT {
		if m == nil || k.Class < 0 || k.Class >= ms.Classes || k.P != k.M {
			continue
		}
		if len(m.TaCoeff) != len(taDegrees) || len(m.TcCoeff) != len(tcDegrees) {
			continue
		}
		ev.nt[k.Class][k.M] = m.Estimate(n)
	}
	for k, m := range ms.PT {
		if m == nil || k.Class < 0 || k.Class >= ms.Classes || k.M < 0 {
			continue
		}
		if len(m.KaCoeff) != 2 || len(m.KcCoeff) != 3 ||
			len(m.RaCoeff) != len(taDegrees) || len(m.RcCoeff) != len(tcDegrees) {
			continue
		}
		ra := lsq.EvalPolynomial(m.RaCoeff, taDegrees, n)
		rc := lsq.EvalPolynomial(m.RcCoeff, tcDegrees, n)
		e := ptEval{
			ok:      true,
			a0:      m.KaCoeff[0] * ra,
			ka1:     m.KaCoeff[1],
			taScale: m.TaScale,
			kc0:     m.KcCoeff[0],
			rc:      rc,
			c1:      m.KcCoeff[1] * rc,
			kc2:     m.KcCoeff[2],
			tcScale: m.TcScale,
		}
		if m.Composed || len(m.Ps) == 0 {
			e.extrapAll = true
		} else {
			e.maxFitP = m.Ps[len(m.Ps)-1]
		}
		if lt := ms.Adjust[k.Class]; lt != nil && k.M >= ms.AdjustMinM {
			e.adjust, e.adjA, e.adjB = true, lt.A, lt.B
		}
		ev.pt[k.Class][k.M] = e
	}
	return ev
}

// N returns the problem size the evaluator was compiled for.
func (ev *Evaluator) N() float64 { return ev.n }

// classTau is the compiled EstimateClass: the per-class estimate for a
// class running `procs` processes per PE in a configuration with total
// process count p. ok is false when the model set has no bin for it.
//
//het:hotpath
//het:allocfree
func (ev *Evaluator) classTau(class, procs, p int) (float64, bool) {
	if p == procs {
		// Single-PE bin: the whole job runs on one processor.
		row := ev.nt[class]
		if procs < 0 || procs >= len(row) {
			return 0, false
		}
		v := row[procs]
		return v, !math.IsNaN(v)
	}
	row := ev.pt[class]
	if procs < 0 || procs >= len(row) {
		return 0, false
	}
	e := &row[procs]
	if !e.ok {
		return 0, false
	}
	pf := float64(p)
	ta := e.taScale * (e.a0/pf + e.ka1)
	tc := e.tcScale * (e.kc0*pf*e.rc + e.c1/pf + e.kc2)
	if e.adjust && (e.extrapAll || p > e.maxFitP) {
		tc = e.adjA*tc + e.adjB
		if tc < 0 {
			tc = 0
		}
	}
	return ta + tc, true
}

// Tau scores a configuration: the estimated execution time τ and whether
// the model set can score it at all (the boolean counterpart of
// ModelSet.Estimate's error). Tau allocates nothing: it treats classes with a nonpositive PE or
// process count as unused instead of materializing a normalized copy, which
// is equivalent by construction. A scorable configuration the §3.4 memory
// rule excludes scores +Inf.
//
//het:hotpath
//het:allocfree
func (ev *Evaluator) Tau(cfg cluster.Configuration) (float64, bool) {
	if len(cfg.Use) != ev.classes {
		return 0, false
	}
	p := 0
	for _, u := range cfg.Use {
		if u.PEs > 0 && u.Procs > 0 {
			p += u.PEs * u.Procs
		}
	}
	if p == 0 {
		return 0, false
	}
	total := math.Inf(-1)
	for ci, u := range cfg.Use {
		if u.PEs <= 0 || u.Procs <= 0 {
			continue
		}
		ti, ok := ev.classTau(ci, u.Procs, p)
		if !ok {
			return 0, false
		}
		if ev.mem != nil && !ev.mem.fits(ci, u.PEs, u.Procs, p) {
			ti = math.Inf(1)
		}
		if ti > total {
			total = ti
		}
	}
	return total, true
}
