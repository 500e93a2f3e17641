package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hetmodel/internal/cluster"
)

// FilterFunc spells the constraints out as a candidate predicate (nil when
// unconstrained), for problem size n over the given class count. It is the
// semantic ground truth of the tests: the structural pruning must accept and
// reject exactly the candidates it does, and it is the predicate of the
// brute-force and v1 oracles.
func (c *Constraints) FilterFunc(n float64, classes int) func(cfg cluster.Configuration) bool {
	if c.zero() {
		return nil
	}
	var allowed []bool
	if len(c.Classes) > 0 {
		allowed = make([]bool, classes)
		for _, v := range c.Classes {
			if v >= 0 && v < classes {
				allowed[v] = true
			}
		}
	}
	matrixBytes := 8 * n * n
	return func(cfg cluster.Configuration) bool {
		p, maxM := 0, 0
		for ci, u := range cfg.Use {
			if u.PEs <= 0 || u.Procs <= 0 {
				continue
			}
			if allowed != nil && (ci >= classes || !allowed[ci]) {
				return false
			}
			p += u.PEs * u.Procs
			if u.Procs > maxM {
				maxM = u.Procs
			}
		}
		if c.MaxTotalProcs > 0 && p > c.MaxTotalProcs {
			return false
		}
		if c.MaxBytesPerPE > 0 && p > 0 && matrixBytes/float64(p)*float64(maxM) > c.MaxBytesPerPE {
			return false
		}
		return true
	}
}

// multiClassWorld builds a model set with the given class count, every class
// measured at M = 1..3 on 1, 2 and 4 PEs (class c at speed factor 1+c/4),
// so grids over several classes have full coverage and a non-trivial τ
// landscape — the shape structural pruning needs exercising against.
func multiClassWorld(t *testing.T, classes int) *ModelSet {
	t.Helper()
	var samples []Sample
	for class := 0; class < classes; class++ {
		speed := 1 + float64(class)/4
		for m := 1; m <= 3; m++ {
			for _, pe := range []int{1, 2, 4} {
				p := pe * m
				for _, n := range []int{400, 800, 1600, 2400, 3200} {
					nf := float64(n)
					ta := 6e-10*nf*nf*nf/float64(p)*speed + 0.2
					tc := 1e-9 * nf * nf
					if pe > 1 {
						tc = 2e-9*nf*nf*float64(p) + 1e-8*nf*nf/float64(p) + 0.05
					}
					use := make([]cluster.ClassUse, classes)
					use[class] = cluster.ClassUse{PEs: pe, Procs: m}
					samples = append(samples, Sample{
						Config: cluster.Configuration{Use: use},
						N:      n, P: p, Class: class, M: m,
						Ta: ta, Tc: tc, Wall: ta + tc,
					})
				}
			}
		}
	}
	ms, err := Build(classes, samples)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// multiClassSpace is a grid over the multiClassWorld model: per class,
// PE counts {0, 1, 2, 4} × process counts {1, 2, 3}, i.e. 10 canonical
// pairs per class.
func multiClassSpace(classes int) cluster.Space {
	s := cluster.Space{PEChoices: make([][]int, classes), ProcChoices: make([][]int, classes)}
	for ci := range s.PEChoices {
		s.PEChoices[ci] = []int{0, 1, 2, 4}
		s.ProcChoices[ci] = []int{1, 2, 3}
	}
	return s
}

// randomConstraints draws a constraint set spanning the structural cases:
// class subsets (including subsets that exclude every class), total-process
// caps from generous to unsatisfiable-on-most-shards, and per-PE memory caps
// bracketing the demand range of the spaces under test.
func randomConstraints(rng *rand.Rand, classes int, n float64) *Constraints {
	c := &Constraints{}
	if rng.Intn(2) == 0 {
		for ci := 0; ci < classes; ci++ {
			if rng.Intn(2) == 0 {
				c.Classes = append(c.Classes, ci)
			}
		}
		if len(c.Classes) == 0 && rng.Intn(2) == 0 {
			c.Classes = []int{rng.Intn(classes)} // single-class subset
		}
	}
	switch rng.Intn(3) {
	case 1:
		c.MaxTotalProcs = 1 + rng.Intn(8) // tight: excludes most candidates
	case 2:
		c.MaxTotalProcs = 8 + rng.Intn(24)
	}
	if rng.Intn(2) == 0 {
		// Per-PE demand over these spaces is M·8n²/P with M in 1..3 and P up
		// to a few dozen — caps around 8n² cut through the middle of it.
		c.MaxBytesPerPE = 8 * n * n * []float64{0.1, 0.5, 1.5, 4}[rng.Intn(4)]
	}
	return c
}

// TestConstrainedSearchMatchesFilterOracle is the constraints property
// test: a structurally constrained search — ranged, at several worker
// counts — is byte-identical to ranking by brute force the candidates the
// constraints' defining FilterFunc closure accepts, over randomized
// constraints and partitions, including constraints that empty a shard or
// the whole grid.
func TestConstrainedSearchMatchesFilterOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, classes := range []int{1, 2, 3} {
		ms := multiClassWorld(t, classes)
		ev := ms.Compile(2400)
		grid, err := multiClassSpace(classes).Compile()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 24; trial++ {
			cons := randomConstraints(rng, classes, 2400)
			k := 1 + rng.Intn(5)
			ranges := append([]IndexRange{{Lo: 0, Hi: grid.Size()}},
				randomPartition(rng, grid.Size(), 1+rng.Intn(3))...)
			for _, rr := range ranges {
				rr := rr
				var shard *IndexRange
				if rr.Lo != 0 || rr.Hi != grid.Size() {
					shard = &rr
				}
				want, size := bruteForce(ev, grid, shard, cons, k)
				for _, workers := range []int{1, 2, 7} {
					got, err := ev.Search(grid, SearchOptions{
						Workers: workers, TopK: k, Range: shard, Constraints: cons,
					})
					label := fmt.Sprintf("classes=%d trial=%d [%d,%d) w=%d cons=%+v",
						classes, trial, rr.Lo, rr.Hi, workers, cons)
					checkAgainst(t, label, grid, got, err, want, size, shard != nil)
				}
			}
		}
	}
}

// TestConstraintsGuardedTablePath pins structured constraints on an evaluator
// with a cluster descriptor: its exclusions sit in the tables as +Inf, so the
// constraints prune structurally as ever and the answer still matches the
// brute-force oracle.
func TestConstraintsGuardedTablePath(t *testing.T) {
	ms := richWorld(t, tightDescriptor())
	ev := ms.Compile(5600)
	grid, err := cluster.PaperEvaluationSpace().Compile()
	if err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{Classes: []int{1}, MaxTotalProcs: 6}
	want, size := bruteForce(ev, grid, nil, cons, 3)
	unguarded, _ := bruteForce(richWorld(t, nil).Compile(5600), grid, nil, cons, 3)
	if len(want) < 2 || fmt.Sprint(want) == fmt.Sprint(unguarded) {
		t.Fatalf("vacuous: brute force ranked %v, %v without the descriptor", want, unguarded)
	}
	got, err := ev.Search(grid, SearchOptions{Workers: 1, TopK: 3, Constraints: cons})
	checkAgainst(t, "guarded", grid, got, err, want, size, false)
	if got.Pruned == 0 {
		t.Fatalf("structural constraints pruned nothing: scored %d of %d", got.Scored, got.Size)
	}
}

// TestConstraintsEmptyingSearch pins the edge the fleet cares about: a
// constraint set excluding every candidate errors on a full search (like an
// unscorable grid) but answers an empty Best on a shard.
func TestConstraintsEmptyingSearch(t *testing.T) {
	ms := multiClassWorld(t, 2)
	ev := ms.Compile(2400)
	grid, err := multiClassSpace(2).Compile()
	if err != nil {
		t.Fatal(err)
	}
	impossible := &Constraints{MaxBytesPerPE: 1} // one byte per PE: nothing fits
	if _, err := ev.Search(grid, SearchOptions{Workers: 1, Constraints: impossible}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("full search under impossible constraints: err = %v, want ErrNoModel", err)
	}
	shard := IndexRange{Lo: 1, Hi: grid.Size() / 2}
	res, err := ev.Search(grid, SearchOptions{Workers: 1, Constraints: impossible, Range: &shard})
	if err != nil {
		t.Fatalf("emptied shard errored: %v", err)
	}
	if len(res.Best) != 0 {
		t.Fatalf("emptied shard returned %d candidates", len(res.Best))
	}
	if res.Scored+res.Pruned != res.Size {
		t.Fatalf("emptied shard accounting: %d + %d != %d", res.Scored, res.Pruned, res.Size)
	}
}

// TestConstraintsValidation pins the error cases shared with the serving
// layer: negative caps and out-of-range classes are rejected up front.
func TestConstraintsValidation(t *testing.T) {
	ms := multiClassWorld(t, 2)
	ev := ms.Compile(2400)
	grid, err := multiClassSpace(2).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Constraints{
		{MaxTotalProcs: -1},
		{MaxBytesPerPE: -0.5},
		{Classes: []int{2}},
		{Classes: []int{-1}},
	} {
		if _, err := ev.Search(grid, SearchOptions{Workers: 1, Constraints: bad}); err == nil {
			t.Fatalf("constraints %+v accepted", bad)
		}
	}
	// A nil or zero Constraints restricts nothing.
	want, err := ev.Search(grid, SearchOptions{Workers: 1, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Search(grid, SearchOptions{Workers: 1, TopK: 2, Constraints: &Constraints{}})
	if err != nil {
		t.Fatal(err)
	}
	if rankedJSON(t, got.Best, got.BestIndex) != rankedJSON(t, want.Best, want.BestIndex) {
		t.Fatal("zero constraints changed the answer")
	}
}
