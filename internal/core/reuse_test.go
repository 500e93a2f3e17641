package core

import (
	"math/rand"
	"testing"
)

// TestSearchReuseMatchesSearch drives one Reusable through a shuffled mix of
// options — plain, constrained, ranged, varying k, and across two
// evaluators and two grids — checking every answer bit-identical
// to a fresh sequential Search. The buffer recycling must be invisible.
func TestSearchReuseMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ms := multiClassWorld(t, 3)
	evs := []*Evaluator{ms.Compile(2400), ms.Compile(3200)}
	gridA, err := multiClassSpace(3).Compile()
	if err != nil {
		t.Fatal(err)
	}
	smallSpace := multiClassSpace(3)
	smallSpace.PEChoices[2] = []int{0, 2}
	gridB, err := smallSpace.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{MaxTotalProcs: 14, MaxBytesPerPE: 8 * 2400 * 2400 * 1.5}
	var r Reusable
	for trial := 0; trial < 60; trial++ {
		ev := evs[rng.Intn(2)]
		grid := gridA
		if rng.Intn(4) == 0 {
			grid = gridB
		}
		opts := SearchOptions{TopK: 1 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			opts.Constraints = cons
		}
		if rng.Intn(3) == 0 {
			lo := rng.Int63n(grid.Size())
			opts.Range = &IndexRange{Lo: lo, Hi: lo + rng.Int63n(grid.Size()-lo)}
		}
		sopts := opts
		sopts.Workers = 1
		want, wantErr := ev.Search(grid, sopts)
		got, err := ev.SearchReuse(grid, opts, &r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d opts=%+v: reuse err %v, search err %v", trial, opts, err, wantErr)
		}
		if err != nil {
			continue
		}
		if rankedJSON(t, got.Best, got.BestIndex) != rankedJSON(t, want.Best, want.BestIndex) {
			t.Fatalf("trial %d opts=%+v:\n got %s\nwant %s", trial, opts,
				rankedJSON(t, got.Best, got.BestIndex), rankedJSON(t, want.Best, want.BestIndex))
		}
		if got.Size != want.Size || got.Scored != want.Scored || got.Pruned != want.Pruned {
			t.Fatalf("trial %d opts=%+v: accounting (%d,%d,%d) vs (%d,%d,%d)", trial, opts,
				got.Size, got.Scored, got.Pruned, want.Size, want.Scored, want.Pruned)
		}
	}
}

// TestSearchReusePlanTracksEvaluator pins the plan-cache key: the same
// Reusable and Constraints at a different compiled size must not reuse the
// stale memory-exclusion plan, and neither may the same Constraints pointer
// whose fields were mutated in place between calls (the cache keys on the
// constraint values, not on pointer identity).
func TestSearchReusePlanTracksEvaluator(t *testing.T) {
	ms := multiClassWorld(t, 2)
	grid, err := multiClassSpace(2).Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Cap sized so it binds at n=3200 but not at n=1600 (demand scales as n²).
	cons := &Constraints{MaxBytesPerPE: 8 * 2400 * 2400 * 1.2}
	var r Reusable
	for _, n := range []float64{1600, 3200, 1600} {
		ev := ms.Compile(n)
		want, err := ev.Search(grid, SearchOptions{Workers: 1, TopK: 3, Constraints: cons})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.SearchReuse(grid, SearchOptions{TopK: 3, Constraints: cons}, &r)
		if err != nil {
			t.Fatal(err)
		}
		if rankedJSON(t, got.Best, got.BestIndex) != rankedJSON(t, want.Best, want.BestIndex) {
			t.Fatalf("n=%v: reused plan diverged\n got %s\nwant %s", n,
				rankedJSON(t, got.Best, got.BestIndex), rankedJSON(t, want.Best, want.BestIndex))
		}
		if got.Scored != want.Scored || got.Pruned != want.Pruned {
			t.Fatalf("n=%v: accounting (%d,%d) vs (%d,%d)", n, got.Scored, got.Pruned, want.Scored, want.Pruned)
		}
	}

	ev := ms.Compile(2400)
	mutating := &Constraints{MaxTotalProcs: 4}
	var prev string
	for step, mutate := range []func(){
		func() {},
		func() { mutating.MaxTotalProcs = 12 },
		func() { mutating.Classes = []int{1} },
		func() { mutating.Classes[0] = 0 },
		func() { mutating.MaxBytesPerPE = 8 * 2400 * 2400 * 0.4 },
	} {
		mutate()
		want, err := ev.Search(grid, SearchOptions{Workers: 1, TopK: 3, Constraints: mutating})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.SearchReuse(grid, SearchOptions{TopK: 3, Constraints: mutating}, &r)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, wantJSON := rankedJSON(t, got.Best, got.BestIndex), rankedJSON(t, want.Best, want.BestIndex)
		if gotJSON != wantJSON {
			t.Fatalf("step %d cons=%+v: in-place mutation searched a stale plan\n got %s\nwant %s",
				step, mutating, gotJSON, wantJSON)
		}
		if wantJSON == prev {
			t.Fatalf("step %d cons=%+v: mutation did not change the answer; test is vacuous", step, mutating)
		}
		prev = wantJSON
	}
}

// TestSearchReuseSteadyStateAllocs pins the zero-allocation contract of the
// hot serving loop: after the first call warms the buffers, repeated
// searches — constrained and not — allocate nothing. The six-class case is
// the 10⁶-candidate grid (10 pairs per class) at N = 3200, top-8, the grid
// whose walk core.search_top8_us times in the benchmark: this is the
// blocking allocation gate on that kernel.
func TestSearchReuseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		classes int
		n       float64
		cons    *Constraints
	}{
		{3, 2400, nil},
		{3, 2400, &Constraints{Classes: []int{0, 1}, MaxTotalProcs: 16}},
		{6, 3200, nil},
	} {
		ev := multiClassWorld(t, tc.classes).Compile(tc.n)
		grid, err := multiClassSpace(tc.classes).Compile()
		if err != nil {
			t.Fatal(err)
		}
		var r Reusable
		opts := SearchOptions{TopK: 8, Constraints: tc.cons}
		if _, err := ev.SearchReuse(grid, opts, &r); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			res, err := ev.SearchReuse(grid, opts, &r)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Best) != 8 {
				t.Fatalf("%d winners", len(res.Best))
			}
		})
		if allocs != 0 {
			t.Fatalf("%d classes, cons=%+v: steady-state SearchReuse allocates %v per run", tc.classes, tc.cons, allocs)
		}
	}
}
