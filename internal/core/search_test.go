package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"hetmodel/internal/cluster"
)

// groundTruthTopK ranks a space's enumerated candidates by (tau, position)
// through the uncompiled estimator — the reference the streaming search
// must reproduce exactly.
func groundTruthTopK(t *testing.T, ms *ModelSet, space cluster.Space, n float64, k int) []Estimate {
	t.Helper()
	cfgs, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	type ranked struct {
		est Estimate
		idx int
	}
	var scored []ranked
	for i, cfg := range cfgs {
		tau, err := ms.Estimate(cfg, n)
		if err != nil || math.IsInf(tau, 1) || math.IsNaN(tau) {
			continue
		}
		scored = append(scored, ranked{Estimate{Config: cfg, Tau: tau}, i})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].est.Tau != scored[j].est.Tau {
			return scored[i].est.Tau < scored[j].est.Tau
		}
		return scored[i].idx < scored[j].idx
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	out := make([]Estimate, len(scored))
	for i, r := range scored {
		out[i] = r.est
	}
	return out
}

// TestOptimizeSpaceMatchesExhaustive is the tentpole equivalence property:
// the streaming search returns the identical ranked winners as the
// enumerate-then-sort reference — over the paper space and randomized
// spaces, at any worker count, top-K 1 and 3.
func TestOptimizeSpaceMatchesExhaustive(t *testing.T) {
	ms := richWorld(t, nil)
	for si, space := range evalSpaces() {
		for _, n := range []int{400, 6400} {
			for _, k := range []int{1, 3} {
				want := groundTruthTopK(t, ms, space, float64(n), k)
				for _, workers := range []int{1, 2, 7, 0} {
					res, err := ms.OptimizeSpace(space, n, SearchOptions{Workers: workers, TopK: k})
					if len(want) == 0 {
						if err == nil {
							t.Fatalf("space %d n=%d: search found %v, reference found nothing", si, n, res.Best)
						}
						continue
					}
					if err != nil {
						t.Fatalf("space %d n=%d k=%d w=%d: %v", si, n, k, workers, err)
					}
					if len(res.Best) != len(want) {
						t.Fatalf("space %d n=%d k=%d w=%d: %d results, want %d",
							si, n, k, workers, len(res.Best), len(want))
					}
					for i := range want {
						if res.Best[i].Tau != want[i].Tau || res.Best[i].Config.Key() != want[i].Config.Key() {
							t.Fatalf("space %d n=%d k=%d w=%d rank %d: got %s (%v), want %s (%v)",
								si, n, k, workers, i,
								res.Best[i].Config, res.Best[i].Tau, want[i].Config, want[i].Tau)
						}
					}
				}
			}
		}
	}
}

// TestSearchAccounting checks Size/Scored/Pruned bookkeeping, with and
// without a cluster descriptor: a search asked for every candidate never
// gets a finite threshold and visits everything, the winner-only search
// prunes and visits no more, and both agree on the space size and the
// winner.
func TestSearchAccounting(t *testing.T) {
	space := cluster.PaperEvaluationSpace()
	cfgs, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	ranked := map[string]int{}
	for name, ms := range map[string]*ModelSet{"plain": richWorld(t, nil), "guarded": richWorld(t, tightDescriptor())} {
		full, err := ms.OptimizeSpace(space, 6400, SearchOptions{Workers: 1, TopK: len(cfgs)})
		if err != nil {
			t.Fatal(err)
		}
		if full.Size != int64(len(cfgs)) {
			t.Fatalf("%s: Size = %d, enumerate found %d", name, full.Size, len(cfgs))
		}
		if full.Scored != full.Size || full.Pruned != 0 {
			t.Fatalf("%s: unpruned search scored %d / pruned %d of %d", name, full.Scored, full.Pruned, full.Size)
		}
		ranked[name] = len(full.Best)
		pruned, err := ms.OptimizeSpace(space, 6400, SearchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Size != full.Size || pruned.Scored+pruned.Pruned != pruned.Size {
			t.Fatalf("%s: pruned search accounts %d+%d of %d (full size %d)", name, pruned.Scored, pruned.Pruned, pruned.Size, full.Size)
		}
		if pruned.Pruned == 0 || pruned.Scored > full.Scored {
			t.Fatalf("%s: pruning skipped %d and scored %d of %d", name, pruned.Pruned, pruned.Scored, full.Scored)
		}
		if pruned.Best[0].Tau != full.Best[0].Tau || pruned.BestIndex[0] != full.BestIndex[0] {
			t.Fatalf("%s: searches disagree on the winner: (%d, %v) vs (%d, %v)", name,
				pruned.BestIndex[0], pruned.Best[0].Tau, full.BestIndex[0], full.Best[0].Tau)
		}
	}
	if ranked["guarded"] == 0 || ranked["guarded"] >= ranked["plain"] {
		t.Fatalf("the descriptor excluded nothing or everything: %v candidates ranked", ranked)
	}
}

// TestOptimizeSpaceAgreesWithOptimize ties the new entry point to the old
// one over the paper grid.
func TestOptimizeSpaceAgreesWithOptimize(t *testing.T) {
	ms := richWorld(t, nil)
	space := cluster.PaperEvaluationSpace()
	cfgs, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3200, 6400, 9600} {
		oldBest, oldTau, err := ms.Optimize(cfgs, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ms.OptimizeSpace(space, n, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best[0].Tau != oldTau || res.Best[0].Config.Key() != oldBest.Key() {
			t.Fatalf("n=%d: OptimizeSpace %s (%v), Optimize %s (%v)",
				n, res.Best[0].Config, res.Best[0].Tau, oldBest, oldTau)
		}
	}
}

// TestOptimizeSpaceNoScorable returns ErrNoModel like Optimize does.
func TestOptimizeSpaceNoScorable(t *testing.T) {
	ms := builtWorld(t)
	// M = 6 was never measured, so nothing in this space is scorable.
	space := cluster.Space{
		PEChoices:   [][]int{{0}, {1, 2}},
		ProcChoices: [][]int{{1}, {6}},
	}
	if _, err := ms.OptimizeSpace(space, 3200, SearchOptions{}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("expected ErrNoModel, got %v", err)
	}
	// A space holding only the all-unused configuration.
	empty := cluster.Space{PEChoices: [][]int{{0}, {0}}, ProcChoices: [][]int{{1}, {1}}}
	if _, err := ms.OptimizeSpace(empty, 3200, SearchOptions{}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("expected ErrNoModel for empty space, got %v", err)
	}
}

// TestOptimizeSpaceGuardedMatchesReference: a cluster descriptor makes τ
// depend on how a pair's ranks land on its nodes, not just on (class, M, P);
// the tables carry that as +Inf entries, so the search still prunes — and
// the results must still match the enumerate-then-sort reference.
func TestOptimizeSpaceGuardedMatchesReference(t *testing.T) {
	ms := richWorld(t, tightDescriptor())
	space := cluster.PaperEvaluationSpace()
	want := groundTruthTopK(t, ms, space, 6400, 2)
	if plain := groundTruthTopK(t, richWorld(t, nil), space, 6400, 2); want[0].Config.Key() == plain[0].Config.Key() {
		t.Fatalf("vacuous: the descriptor does not move the winner %s", plain[0].Config)
	}
	res, err := ms.OptimizeSpace(space, 6400, SearchOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Fatal("descriptor-bearing search pruned nothing")
	}
	for i := range want {
		if res.Best[i].Tau != want[i].Tau || res.Best[i].Config.Key() != want[i].Config.Key() {
			t.Fatalf("rank %d: got %s (%v), want %s (%v)",
				i, res.Best[i].Config, res.Best[i].Tau, want[i].Config, want[i].Tau)
		}
	}
}

// TestOptimizeHeuristicAgreesWithExhaustive is the regression gate for the
// heuristic after the neighbours dedupe and the compiled scoring path: on
// the paper evaluation grid it must find the exhaustive optimum.
func TestOptimizeHeuristicAgreesWithExhaustive(t *testing.T) {
	ms := richWorld(t, nil)
	space := cluster.PaperEvaluationSpace()
	cfgs, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3200, 6400, 9600} {
		exBest, exTau, err := ms.Optimize(cfgs, n)
		if err != nil {
			t.Fatal(err)
		}
		heurBest, heurTau, evals, err := ms.OptimizeHeuristic(space, n)
		if err != nil {
			t.Fatal(err)
		}
		if heurBest.Key() != exBest.Key() || heurTau != exTau {
			t.Fatalf("n=%d: heuristic %s (%v), exhaustive %s (%v)", n, heurBest, heurTau, exBest, exTau)
		}
		if evals <= 0 || evals >= len(cfgs) {
			t.Fatalf("n=%d: heuristic spent %d evals vs %d exhaustive", n, evals, len(cfgs))
		}
	}
}

// TestNeighboursNoDuplicateZero pins the dedupe fix: when 0 is already the
// adjacent choice, the jump-to-zero rule must not add it again.
func TestNeighboursNoDuplicateZero(t *testing.T) {
	got := neighbours([]int{0, 1, 2, 4, 8}, 1)
	seen := map[int]int{}
	for _, v := range got {
		seen[v]++
		if seen[v] > 1 {
			t.Fatalf("neighbours(1) returned %d twice: %v", v, got)
		}
	}
	if seen[0] != 1 || seen[2] != 1 || len(got) != 2 {
		t.Fatalf("neighbours(1) = %v, want {0, 2}", got)
	}
}
