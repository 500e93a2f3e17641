package core

import (
	"fmt"
	"math"
	"sort"

	"hetmodel/internal/cluster"
)

// Estimate is one scored candidate configuration.
type Estimate struct {
	Config cluster.Configuration
	// Tau is the estimated execution time (the paper's τ).
	Tau float64
}

// Optimize exhaustively evaluates the candidates (the paper examines every
// possible configuration, §5) and returns the one with the smallest
// estimated execution time. Candidates the model cannot score are skipped;
// an error is returned only when no candidate is scorable.
func (ms *ModelSet) Optimize(candidates []cluster.Configuration, n int) (cluster.Configuration, float64, error) {
	return ms.Compile(float64(n)).Optimize(candidates)
}

// Optimize returns the candidate with the smallest τ at the evaluator's
// compiled size: a sequential scan where only a strictly smaller τ replaces
// the incumbent, so ties keep the earliest candidate and unscorable, +Inf
// (memory-excluded) and NaN candidates never win.
func (ev *Evaluator) Optimize(candidates []cluster.Configuration) (cluster.Configuration, float64, error) {
	best, bestTau := -1, math.Inf(1)
	for i, cfg := range candidates {
		if tau, ok := ev.Tau(cfg); ok && tau < bestTau {
			best, bestTau = i, tau
		}
	}
	if best < 0 {
		return cluster.Configuration{}, 0, fmt.Errorf("%w: no scorable candidate among %d", ErrNoModel, len(candidates))
	}
	return candidates[best], bestTau, nil
}

// OptimizeHeuristic implements the search-space reduction the paper lists
// as future work (§5): a coordinate-descent hill climb over the per-class
// (PEs, Procs) grid starting from the configuration that uses every PE with
// one process each. Each step evaluates only the ±1 neighbours of one
// coordinate, so the number of model evaluations is O(moves · classes)
// instead of the full grid product.
//
// space supplies the allowed values per coordinate (same shape as
// cluster.Space). Returns the local optimum found and the number of model
// evaluations spent.
func (ms *ModelSet) OptimizeHeuristic(space cluster.Space, n int) (cluster.Configuration, float64, int, error) {
	if len(space.PEChoices) != ms.Classes || len(space.ProcChoices) != ms.Classes {
		return cluster.Configuration{}, 0, 0, fmt.Errorf("%w: space/class mismatch", ErrNoModel)
	}
	// Start: maximum PEs, one process each (use all hardware plainly).
	cur := cluster.Configuration{Use: make([]cluster.ClassUse, ms.Classes)}
	for ci := range cur.Use {
		pes := append([]int(nil), space.PEChoices[ci]...)
		procs := append([]int(nil), space.ProcChoices[ci]...)
		sort.Ints(pes)
		sort.Ints(procs)
		cur.Use[ci] = cluster.ClassUse{PEs: pes[len(pes)-1], Procs: minPositive(procs)}
	}
	ev := ms.Compile(float64(n))
	evals := 0
	score := func(cfg cluster.Configuration) (float64, bool) {
		evals++
		return ev.Tau(cfg)
	}
	curTau, ok := score(cur)
	if !ok {
		return cluster.Configuration{}, 0, evals, fmt.Errorf("%w: start configuration not scorable", ErrNoModel)
	}
	improved := true
	for improved {
		improved = false
		for ci := 0; ci < ms.Classes; ci++ {
			for _, coord := range []int{0, 1} { // 0: PEs, 1: Procs
				choices := space.PEChoices[ci]
				if coord == 1 {
					choices = space.ProcChoices[ci]
				}
				curVal := cur.Use[ci].PEs
				if coord == 1 {
					curVal = cur.Use[ci].Procs
				}
				for _, v := range neighbours(choices, curVal) {
					cand := cur
					cand.Use = append([]cluster.ClassUse(nil), cur.Use...)
					if coord == 0 {
						cand.Use[ci].PEs = v
					} else {
						cand.Use[ci].Procs = v
					}
					cand = cand.Normalize()
					if cand.TotalProcs() == 0 {
						continue
					}
					if tau, ok := score(cand); ok && tau < curTau-1e-12 {
						cur, curTau = cand, tau
						improved = true
					}
				}
			}
		}
	}
	return cur.Normalize(), curTau, evals, nil
}

// neighbours returns the values adjacent to cur in the sorted choice list
// (plus the extreme opposite of zero, so "drop the class entirely" is
// reachable from any PE count).
func neighbours(choices []int, cur int) []int {
	s := append([]int(nil), choices...)
	sort.Ints(s)
	idx := -1
	for i, v := range s {
		if v == cur {
			idx = i
			break
		}
	}
	var out []int
	if idx > 0 {
		out = append(out, s[idx-1])
	}
	if idx >= 0 && idx < len(s)-1 {
		out = append(out, s[idx+1])
	}
	if idx == -1 && len(s) > 0 {
		out = append(out, s[0], s[len(s)-1])
	}
	// Allow jumping to zero (drop the class) when available — unless zero is
	// already among the adjacent choices, which would double-score the same
	// candidate and inflate the reported eval count.
	if len(s) > 0 && s[0] == 0 && cur != 0 {
		dup := false
		for _, v := range out {
			if v == 0 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, 0)
		}
	}
	return out
}

func minPositive(sorted []int) int {
	for _, v := range sorted {
		if v > 0 {
			return v
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}
