package core

import (
	"fmt"
	"slices"

	"hetmodel/internal/cluster"
)

// Constraints are the structured candidate restrictions the search kernel
// understands natively: the serving layer's PE-class subsets, total-process
// caps and per-PE memory bounds. The walker compiles them into per-(class,
// pair) exclusion masks and prefix/suffix cap checks that zero whole
// subtrees without decoding or visiting their candidates.
//
// A constrained search returns bit-identical Best/BestIndex/Size to ranking,
// by brute force, exactly the candidates the fields below admit (the
// equivalence tests pin this against a plain predicate). Structurally
// excluded candidates count as pruned (skipped wholesale), not scored.
type Constraints struct {
	// Classes lists the PE classes a candidate may use (nil or empty allows
	// all); a configuration using any PE of another class is excluded.
	Classes []int
	// MaxTotalProcs caps the total process count P = Σ Pi·Mi (0 = no cap).
	MaxTotalProcs int
	// MaxBytesPerPE caps the predetermined per-PE resident set of the
	// paper's §3.4 memory model, Mi·8·N²/P bytes with Mi the largest process
	// count in use, evaluated as 8·N·N/P·Mi (0 = no cap).
	MaxBytesPerPE float64
}

// equal reports whether c and o restrict identically, field for field.
func (c *Constraints) equal(o *Constraints) bool {
	return c.MaxTotalProcs == o.MaxTotalProcs && c.MaxBytesPerPE == o.MaxBytesPerPE &&
		slices.Equal(c.Classes, o.Classes)
}

// zero reports whether the constraints restrict nothing.
func (c *Constraints) zero() bool {
	return c == nil || (len(c.Classes) == 0 && c.MaxTotalProcs == 0 && c.MaxBytesPerPE == 0)
}

// validate rejects caps below zero and class indices outside the grid.
func (c *Constraints) validate(classes int) error {
	if c == nil {
		return nil
	}
	if c.MaxTotalProcs < 0 {
		return fmt.Errorf("%w: negative maxTotalProcs %d", ErrNoModel, c.MaxTotalProcs)
	}
	if c.MaxBytesPerPE < 0 {
		return fmt.Errorf("%w: negative maxBytesPerPE %g", ErrNoModel, c.MaxBytesPerPE)
	}
	for _, v := range c.Classes {
		if v < 0 || v >= classes {
			return fmt.Errorf("%w: constraint class %d outside %d classes", ErrNoModel, v, classes)
		}
	}
	return nil
}

// conPlan is a per-search compilation of Constraints against one grid: the
// static per-(class, pair) exclusion mask plus the dynamic caps the walker
// checks against its prefix accumulators. Every structural skip it enables
// is exact — it removes a candidate if and only if the constraints exclude
// it — which the leaf-level checks guarantee by evaluating the defining
// float expression on the candidate's own operands, and the subtree-level
// checks guarantee by conservative corner bounds (see walker.walk).
type conPlan struct {
	// pairOK[ci][j] is false when no candidate using pair j of class ci can
	// satisfy the constraints: the class is outside the allowed subset, or
	// the pair's per-PE memory demand exceeds the cap even at the grid's
	// maximum total P. nil when only the dynamic P cap applies.
	pairOK [][]bool
	// maxP is the MaxTotalProcs cap (0 = none).
	maxP int
	// memCap is the MaxBytesPerPE cap (0 = none) and mat the 8·N² matrix
	// bytes of the §3.4 memory law it applies to.
	memCap, mat float64
}

// compile builds the walker's plan. Call validate first; compile assumes
// class indices are in range.
func (c *Constraints) compile(grid *cluster.Grid, t *gridTables, n float64) *conPlan {
	classes := grid.Classes()
	plan := &conPlan{maxP: c.MaxTotalProcs, memCap: c.MaxBytesPerPE, mat: 8 * n * n}
	var allowed []bool
	if len(c.Classes) > 0 {
		allowed = make([]bool, classes)
		for _, v := range c.Classes {
			allowed[v] = true
		}
	}
	if allowed == nil && plan.memCap <= 0 {
		return plan // only the P cap: no static exclusions to precompute
	}
	plan.pairOK = make([][]bool, classes)
	for ci := 0; ci < classes; ci++ {
		pairs := grid.Pairs(ci)
		row := make([]bool, len(pairs))
		for j, u := range pairs {
			ok := u.PEs == 0 || allowed == nil || allowed[ci]
			if ok && u.PEs > 0 && plan.memCap > 0 {
				// Static corner bound: the per-PE demand Mi·8N²/P is weakly
				// decreasing in P (IEEE division and multiplication are
				// weakly monotone), so if it exceeds the cap at the grid's
				// maximum achievable P with only this pair's own Mi, every
				// candidate using the pair demands at least as much.
				if plan.mat/float64(t.maxP)*float64(u.Procs) > plan.memCap {
					ok = false
				}
			}
			row[j] = ok
		}
		plan.pairOK[ci] = row
	}
	return plan
}
