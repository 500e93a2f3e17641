package core

import (
	"fmt"
	"math"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/parallel"
)

// seedCases pairs adversarial duplicate-τ worlds with compatible spaces. The
// tie worlds are the dedup stress input: coordinate descent revisits the same
// grid point from different sweep positions with identical τ, so without the
// Contains guard one configuration would fill several scratch slots and drag
// the published threshold below the true k-th best. richWorld rides along as
// the general-position control.
func seedCases(t *testing.T) []struct {
	name string
	ms   *ModelSet
	grid *cluster.Grid
} {
	t.Helper()
	var cases []struct {
		name string
		ms   *ModelSet
		grid *cluster.Grid
	}
	add := func(name string, ms *ModelSet, space cluster.Space) {
		grid, err := space.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if grid.Size() == 0 {
			return
		}
		cases = append(cases, struct {
			name string
			ms   *ModelSet
			grid *cluster.Grid
		}{name, ms, grid})
	}
	for si, space := range evalSpaces() {
		if si == 0 {
			add("ties2", tieWorld(t), space)
			add("rich", richWorld(t, nil), space)
		}
	}
	add("ties4", tieWorldN(t, 4), multiClassSpace(4))
	return cases
}

// TestSeedThresholdDedupAndUpperBound pins the two properties Search relies
// on when it seeds the shared pruning bound: the scratch selection never
// holds one grid ordinal twice (Contains-based dedup, exercised here on
// grids saturated with exact τ ties), and the published threshold is the
// exact τ of real grid points and upper-bounds the grid's true k-th best τ —
// the invariant that makes strict-compare pruning against the seed sound.
func TestSeedThresholdDedupAndUpperBound(t *testing.T) {
	for _, tc := range seedCases(t) {
		ev := tc.ms.Compile(2400)
		tbl := ev.tables(tc.grid)
		if tbl == nil {
			t.Fatalf("%s: no dense tables", tc.name)
		}
		emptyIdx := emptyIndex(tc.grid)
		truth, _ := v1Offers(tc.grid, tbl, 0, tc.grid.Size(), emptyIdx, nil)
		tauAt := make(map[int64]uint64, len(truth))
		for _, c := range truth {
			tauAt[c.Index] = math.Float64bits(c.Score)
		}
		for _, k := range []int{1, 2, 4, 8, 16} {
			scratch, shared := &seedScratch{}, &parallel.SharedThreshold{}
			shared.Reset()
			seedThreshold(tbl, scratch, k, shared)
			thr := shared.Load()
			held := scratch.tk.Sorted()
			if len(held) > k {
				t.Fatalf("%s k=%d: scratch holds %d candidates", tc.name, k, len(held))
			}
			seen := make(map[int64]bool, len(held))
			for _, c := range held {
				if seen[c.Index] {
					t.Fatalf("%s k=%d: ordinal %d seeded twice despite duplicate-τ dedup",
						tc.name, k, c.Index)
				}
				seen[c.Index] = true
				bits, ok := tauAt[c.Index]
				if !ok {
					t.Fatalf("%s k=%d: probe ordinal %d is not a scorable grid point", tc.name, k, c.Index)
				}
				if bits != math.Float64bits(c.Score) {
					t.Fatalf("%s k=%d: probe τ %x for ordinal %d, walker scores %x",
						tc.name, k, math.Float64bits(c.Score), c.Index, bits)
				}
			}
			if len(held) < k {
				if !math.IsInf(thr, 1) {
					t.Fatalf("%s k=%d: %d probes held but threshold %v is finite",
						tc.name, k, len(held), thr)
				}
				continue
			}
			if len(truth) >= k && thr < truth[k-1].Score {
				t.Fatalf("%s k=%d: seeded threshold %v under-bounds true k-th best %v — pruning would drop candidates",
					tc.name, k, thr, truth[k-1].Score)
			}
		}
	}
}

// TestSeededSearchBitIdenticalToBruteForce runs the path the seed
// accelerates — Search over the full range with no constraints, where the
// gate in search enables seeding — against the unseeded, unpruned brute-force
// ranking on the duplicate-τ grids, across k and worker counts. Rankings must
// match bit for bit: the seed may only skip candidates that rank strictly
// after k others, never a tie.
func TestSeededSearchBitIdenticalToBruteForce(t *testing.T) {
	for _, tc := range seedCases(t) {
		ev := tc.ms.Compile(2400)
		for _, k := range []int{1, 4, 16} {
			want, size := bruteForce(ev, tc.grid, nil, nil, k)
			for _, workers := range []int{1, 2, 8} {
				got, err := ev.Search(tc.grid, SearchOptions{Workers: workers, TopK: k})
				checkAgainst(t, fmt.Sprintf("%s k=%d w=%d", tc.name, k, workers), tc.grid, got, err, want, size, false)
			}
		}
	}
}
