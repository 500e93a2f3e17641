package core

import (
	"errors"
	"math"
	"testing"

	"hetmodel/internal/cluster"
)

func builtWorld(t *testing.T) *ModelSet {
	t.Helper()
	ms, err := Build(2, twoClassWorld())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ComposeClass(0, 1, 0.25, 0.85); err != nil {
		t.Fatal(err)
	}
	return ms
}

func candidateSpace() []cluster.Configuration {
	space := cluster.Space{
		PEChoices:   [][]int{{0, 1}, {0, 1, 2, 4, 8}},
		ProcChoices: [][]int{{1, 2}, {1, 2}},
	}
	cfgs, _ := space.Enumerate()
	return cfgs
}

func TestOptimizePicksMinimum(t *testing.T) {
	ms := builtWorld(t)
	cands := candidateSpace()
	best, tau, err := ms.Optimize(cands, 6400)
	if err != nil {
		t.Fatal(err)
	}
	// Verify it really is the minimum over scorable candidates, through the
	// uncompiled reference estimator.
	for _, cfg := range cands {
		if ref, err := ms.Estimate(cfg, 6400); err == nil && ref < tau {
			t.Fatalf("candidate %s (%v) beats chosen %s (%v)", cfg, ref, best, tau)
		}
	}
}

func TestOptimizeLargeNPrefersMorePEs(t *testing.T) {
	ms := builtWorld(t)
	cands := candidateSpace()
	bestSmall, _, err := ms.Optimize(cands, 400)
	if err != nil {
		t.Fatal(err)
	}
	bestLarge, _, err := ms.Optimize(cands, 6400)
	if err != nil {
		t.Fatal(err)
	}
	if bestLarge.TotalProcs() < bestSmall.TotalProcs() {
		t.Fatalf("large-N best %s uses fewer procs than small-N best %s", bestLarge, bestSmall)
	}
}

func TestOptimizeNoScorableCandidates(t *testing.T) {
	ms := builtWorld(t)
	cands := []cluster.Configuration{
		{Use: []cluster.ClassUse{{}, {PEs: 1, Procs: 6}}},
	}
	if _, _, err := ms.Optimize(cands, 3200); !errors.Is(err, ErrNoModel) {
		t.Fatal("optimizer succeeded with nothing scorable")
	}
}

func TestOptimizeHeuristicFindsGoodSolution(t *testing.T) {
	ms := builtWorld(t)
	space := cluster.Space{
		PEChoices:   [][]int{{0, 1}, {0, 1, 2, 4, 8}},
		ProcChoices: [][]int{{1, 2}, {1, 2}},
	}
	cfgs, _ := space.Enumerate()
	_, exhaustiveTau, err := ms.Optimize(cfgs, 6400)
	if err != nil {
		t.Fatal(err)
	}
	_, heurTau, evals, err := ms.OptimizeHeuristic(space, 6400)
	if err != nil {
		t.Fatal(err)
	}
	// The hill climb must reach within 20% of the exhaustive optimum on
	// this smooth landscape, using fewer evaluations than the full grid.
	if heurTau > exhaustiveTau*1.2 {
		t.Fatalf("heuristic tau %v far from exhaustive %v", heurTau, exhaustiveTau)
	}
	if evals <= 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestOptimizeHeuristicValidation(t *testing.T) {
	ms := builtWorld(t)
	if _, _, _, err := ms.OptimizeHeuristic(cluster.Space{}, 3200); !errors.Is(err, ErrNoModel) {
		t.Fatal("mismatched space accepted")
	}
}

func TestNeighbours(t *testing.T) {
	choices := []int{0, 1, 2, 4, 8}
	got := neighbours(choices, 2)
	want := map[int]bool{1: true, 4: true, 0: true}
	if len(got) != len(want) {
		t.Fatalf("neighbours(2) = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected neighbour %d", v)
		}
	}
	// Extremes.
	if got := neighbours(choices, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("neighbours(0) = %v", got)
	}
	if got := neighbours(choices, 8); len(got) != 2 { // 4 and jump-to-0
		t.Fatalf("neighbours(8) = %v", got)
	}
	// Value not in the list falls back to the extremes.
	if got := neighbours(choices, 3); len(got) < 2 {
		t.Fatalf("neighbours(3) = %v", got)
	}
}

func TestMinPositive(t *testing.T) {
	if minPositive([]int{0, 1, 2}) != 1 {
		t.Fatal("minPositive")
	}
	if minPositive([]int{0}) != 0 {
		t.Fatal("minPositive all zero")
	}
	if minPositive(nil) != 0 {
		t.Fatal("minPositive empty")
	}
}

func TestMaxM(t *testing.T) {
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: 4}, {PEs: 8, Procs: 1}}}
	if maxM(cfg) != 4 {
		t.Fatal("maxM")
	}
	cfg = cluster.Configuration{Use: []cluster.ClassUse{{PEs: 0, Procs: 9}, {PEs: 8, Procs: 1}}}
	if maxM(cfg) != 1 {
		t.Fatal("maxM must ignore unused classes")
	}
}

func TestEstimateMonotoneInN(t *testing.T) {
	ms := builtWorld(t)
	cfg := cluster.Configuration{Use: []cluster.ClassUse{{}, {PEs: 8, Procs: 1}}}
	prev := -math.MaxFloat64
	for _, n := range []float64{800, 1600, 3200, 6400, 9600} {
		est, err := ms.Estimate(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if est <= prev {
			t.Fatalf("estimate not increasing at N=%v", n)
		}
		prev = est
	}
}

// TestOptimizeTieBreak pins the tie rule of the slice optimizer: among equal
// taus the earliest candidate wins.
func TestOptimizeTieBreak(t *testing.T) {
	ms := builtWorld(t)
	cands := candidateSpace()
	want, wantTau, err := ms.Optimize(cands, 6400)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the list and append the original: every candidate now has an
	// equal-tau twin later in the order, and the scan must return the
	// winner's first occurrence (in the reversed half), not its twin.
	doubled := make([]cluster.Configuration, 0, 2*len(cands))
	for i := len(cands) - 1; i >= 0; i-- {
		doubled = append(doubled, cands[i])
	}
	doubled = append(doubled, cands...)
	best, tau, err := ms.Compile(6400).Optimize(doubled)
	if err != nil {
		t.Fatal(err)
	}
	if best.Key() != want.Key() || tau != wantTau {
		t.Fatalf("doubled list picked %s (%v), single list %s (%v)", best, tau, want, wantTau)
	}
	// Identity, not just equality: the returned configuration shares the
	// earliest twin's backing array.
	for i, cfg := range doubled {
		if cfg.Key() == want.Key() {
			if &best.Use[0] != &cfg.Use[0] {
				t.Fatalf("tie broke to a later twin of %s, not its first occurrence at %d", want, i)
			}
			break
		}
	}
}
