package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Space is a grid of candidate configurations: per class, the allowed PE
// counts and per-PE process counts. It encodes the paper's Table 2/5/8
// "Model Construction" and "Model Evaluation" parameter grids.
type Space struct {
	// PEChoices[i] lists allowed Pi values for class i.
	PEChoices [][]int
	// ProcChoices[i] lists allowed Mi values for class i.
	ProcChoices [][]int
}

// Grid is a compiled configuration space: per class, the distinct canonical
// (PEs, Procs) pairs in ascending (PEs, Procs) order. The cross product of
// the pair lists indexes every distinct normalized configuration of the
// space exactly once — the map-keyed dedup of the old enumeration happens
// structurally, because pairs with a nonpositive PE or process count all
// canonicalize to the single unused pair before deduplication. Indices run
// class-major (class 0 is the most significant digit), so ascending index
// order is exactly the lexicographic order Enumerate returns.
type Grid struct {
	pairs  [][]ClassUse
	stride []int64 // stride[i] = Π len(pairs[j]) for j > i
	size   int64
}

// Compile canonicalizes the space into an indexable Grid. The grid is the
// streaming counterpart of Enumerate: it supports random access by index
// (for sharded searches) without materializing a configuration slice.
func (s Space) Compile() (*Grid, error) {
	if len(s.PEChoices) == 0 || len(s.PEChoices) != len(s.ProcChoices) {
		return nil, fmt.Errorf("%w: space has %d PE and %d proc choice lists",
			ErrBadConfig, len(s.PEChoices), len(s.ProcChoices))
	}
	classes := len(s.PEChoices)
	g := &Grid{pairs: make([][]ClassUse, classes), stride: make([]int64, classes)}
	// maxP is the largest reachable total process count — the search tabulates
	// per P — in floats, so that absurd choices cannot wrap into range.
	maxP := 0.0
	for ci := range s.PEChoices {
		pairs := make([]ClassUse, 0, len(s.PEChoices[ci])*len(s.ProcChoices[ci]))
		heaviest := 0.0
		for _, pe := range s.PEChoices[ci] {
			for _, m := range s.ProcChoices[ci] {
				u := ClassUse{PEs: pe, Procs: m}
				if u.PEs <= 0 || u.Procs <= 0 {
					u = ClassUse{}
				}
				pairs = append(pairs, u)
				heaviest = max(heaviest, float64(u.PEs)*float64(u.Procs))
			}
		}
		maxP += heaviest
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].PEs != pairs[j].PEs {
				return pairs[i].PEs < pairs[j].PEs
			}
			return pairs[i].Procs < pairs[j].Procs
		})
		uniq := pairs[:0]
		for i, u := range pairs {
			if i == 0 || u != pairs[i-1] {
				uniq = append(uniq, u)
			}
		}
		g.pairs[ci] = uniq
	}
	if maxP > maxTotalProcs {
		return nil, fmt.Errorf("%w: space reaches %g total processes, limit %d", ErrBadConfig, maxP, maxTotalProcs)
	}
	size := int64(1)
	for ci := classes - 1; ci >= 0; ci-- {
		g.stride[ci] = size
		n := int64(len(g.pairs[ci]))
		if n > 0 && size > math.MaxInt64/n {
			return nil, fmt.Errorf("%w: configuration space exceeds 2^63 candidates", ErrBadConfig)
		}
		size *= n
	}
	g.size = size
	return g, nil
}

// Classes returns the number of PE classes of the grid.
func (g *Grid) Classes() int { return len(g.pairs) }

// Size returns the number of grid points, counting the all-unused
// configuration when every class's choices admit one.
func (g *Grid) Size() int64 { return g.size }

// Pairs returns the canonical (PEs, Procs) choices of one class, in index
// order. The returned slice is the grid's own storage; do not modify it.
func (g *Grid) Pairs(class int) []ClassUse { return g.pairs[class] }

// Stride returns the index stride of one class digit: advancing a class's
// pair choice by one moves the grid index by Stride(class).
func (g *Grid) Stride(class int) int64 { return g.stride[class] }

// At decodes a grid index into the caller's per-class buffer, which must
// have Classes() entries. The decoded configuration is already canonical.
func (g *Grid) At(idx int64, use []ClassUse) {
	for ci, pairs := range g.pairs {
		q := idx / g.stride[ci]
		idx -= q * g.stride[ci]
		use[ci] = pairs[q]
	}
}

// Visit walks every grid point in ascending index order, reusing one
// configuration buffer across calls: the callback must copy cfg.Use before
// retaining it. Returning false stops the walk.
func (g *Grid) Visit(fn func(idx int64, cfg Configuration) bool) {
	if g.size == 0 {
		return
	}
	classes := len(g.pairs)
	use := make([]ClassUse, classes)
	digits := make([]int, classes)
	for ci := range use {
		use[ci] = g.pairs[ci][0]
	}
	cfg := Configuration{Use: use}
	for idx := int64(0); ; idx++ {
		if !fn(idx, cfg) {
			return
		}
		// Odometer increment, least-significant (last) class first.
		ci := classes - 1
		for ; ci >= 0; ci-- {
			digits[ci]++
			if digits[ci] < len(g.pairs[ci]) {
				use[ci] = g.pairs[ci][digits[ci]]
				break
			}
			digits[ci] = 0
			use[ci] = g.pairs[ci][0]
		}
		if ci < 0 {
			return
		}
	}
}

// Visit streams the distinct normalized configurations of the space in
// Enumerate order without materializing the slice or the dedup map. The
// configuration passed to the callback shares one backing array across
// calls — copy cfg.Use before retaining it. Returning false stops the walk.
func (s Space) Visit(fn func(cfg Configuration) bool) error {
	g, err := s.Compile()
	if err != nil {
		return err
	}
	g.Visit(func(_ int64, cfg Configuration) bool {
		if cfg.TotalProcs() == 0 {
			return true
		}
		return fn(cfg)
	})
	return nil
}

// Enumerate expands the grid into distinct, normalized configurations with
// at least one process. Configurations that differ only in the process count
// of an unused class collapse to one.
func (s Space) Enumerate() ([]Configuration, error) {
	g, err := s.Compile()
	if err != nil {
		return nil, err
	}
	var out []Configuration
	g.Visit(func(_ int64, cfg Configuration) bool {
		if cfg.TotalProcs() == 0 {
			return true
		}
		out = append(out, Configuration{Use: append([]ClassUse(nil), cfg.Use...)})
		return true
	})
	return out, nil
}

// PaperConstructionSpace returns the "Model Construction" grid of the given
// paper table for the two-class paper cluster:
//
//	Athlon:    P1 = 1,      M1 = 1..6
//	PentiumII: P2 = peList, M2 = 1..6
//
// The Athlon and Pentium-II configurations are measured separately
// (homogeneous sub-clusters, §3.5), so this returns two spaces.
func PaperConstructionSpace(peList []int) (athlon, pentium Space) {
	athlon = Space{
		PEChoices:   [][]int{{1}, {0}},
		ProcChoices: [][]int{{1, 2, 3, 4, 5, 6}, {0}},
	}
	pentium = Space{
		PEChoices:   [][]int{{0}, peList},
		ProcChoices: [][]int{{0}, {1, 2, 3, 4, 5, 6}},
	}
	return athlon, pentium
}

// PaperEvaluationSpace returns the paper's "Model Evaluation" grid
// (Tables 2, 5, 8): Athlon P1 ∈ {0,1}, M1 ∈ 1..6; Pentium-II P2 ∈ 0..8,
// M2 = 1 — 62 distinct configurations.
func PaperEvaluationSpace() Space {
	return Space{
		PEChoices:   [][]int{{0, 1}, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
		ProcChoices: [][]int{{1, 2, 3, 4, 5, 6}, {1}},
	}
}
