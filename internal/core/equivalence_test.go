package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/parallel"
)

// bruteForce is the search's semantic ground truth, written with nothing the
// kernel uses: visit every grid point of the range, drop the all-unused
// configuration and whatever the constraints' FilterFunc rejects, score the
// rest one by one through Evaluator.Tau (the compiled formulas, not the grid
// tables), and keep the k best by (τ, index). size is the range's candidate
// count, the value SearchResult.Size must report.
func bruteForce(ev *Evaluator, grid *cluster.Grid, rg *IndexRange, cons *Constraints, k int) (best []parallel.Candidate, size int64) {
	lo, hi := int64(0), grid.Size()
	if rg != nil {
		lo, hi = rg.Lo, rg.Hi
	}
	accept := cons.FilterFunc(ev.N(), grid.Classes())
	tk := parallel.NewTopK(k)
	grid.Visit(func(idx int64, cfg cluster.Configuration) bool {
		if idx < lo || idx >= hi || cfg.TotalProcs() == 0 {
			return idx < hi
		}
		size++
		if accept == nil || accept(cfg) {
			if tau, ok := ev.Tau(cfg); ok {
				tk.Offer(idx, tau)
			}
		}
		return true
	})
	return tk.Sorted(), size
}

// checkAgainst asserts a search outcome equals the brute-force one: the
// same error-or-not, and Best/BestIndex/Size bit for bit with consistent
// Scored/Pruned accounting.
func checkAgainst(t *testing.T, label string, grid *cluster.Grid, got *SearchResult, err error,
	want []parallel.Candidate, size int64, ranged bool) {
	t.Helper()
	if len(want) == 0 && !ranged {
		if !errors.Is(err, ErrNoModel) {
			t.Fatalf("%s: nothing scorable, but err = %v (result %+v)", label, err, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (brute force ranked %d)", label, err, len(want))
	}
	if got.Size != size {
		t.Fatalf("%s: Size %d, brute force counted %d", label, got.Size, size)
	}
	if got.Scored+got.Pruned != got.Size {
		t.Fatalf("%s: accounting %d scored + %d pruned != %d", label, got.Scored, got.Pruned, got.Size)
	}
	if len(got.Best) != len(want) || len(got.BestIndex) != len(want) {
		t.Fatalf("%s: %d results (%d indices), brute force %d", label, len(got.Best), len(got.BestIndex), len(want))
	}
	use := make([]cluster.ClassUse, grid.Classes())
	for i, c := range want {
		if got.BestIndex[i] != c.Index || math.Float64bits(got.Best[i].Tau) != math.Float64bits(c.Score) {
			t.Fatalf("%s rank %d: got (%d, %x), brute force (%d, %x)", label, i,
				got.BestIndex[i], math.Float64bits(got.Best[i].Tau), c.Index, math.Float64bits(c.Score))
		}
		grid.At(c.Index, use)
		if got.Best[i].Config.Key() != (cluster.Configuration{Use: use}).Key() {
			t.Fatalf("%s rank %d: config %s is not grid point %d", label, i, got.Best[i].Config, c.Index)
		}
	}
}

// TestSearchEquivalence is the one table of the search contract: for every
// kind of world (plain tables, a tie-heavy one, one whose cluster descriptor
// writes +Inf exclusions into the tables) × constraint kind × full and split
// ranges × k ∈ {1, 3, Size} × workers ∈ {1, 2, 8}, Search returns exactly
// the brute-force ranking and the v1 walker oracle agrees; the split ranges
// merge to the full answer; and SearchReuse over one recycled Reusable
// matches Search(Workers: 1) down to Scored/Pruned.
func TestSearchEquivalence(t *testing.T) {
	compile := func(s cluster.Space) *cluster.Grid {
		g, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	paths := []struct {
		name string
		ev   *Evaluator
		grid *cluster.Grid
	}{
		{"tables", multiClassWorld(t, 3).Compile(2400), compile(multiClassSpace(3))},
		{"ties", tieWorld(t).Compile(6400), compile(cluster.PaperEvaluationSpace())},
		{"guarded", richWorld(t, tightDescriptor()).Compile(6400), compile(cluster.PaperEvaluationSpace())},
	}
	for _, p := range paths {
		tbl := p.ev.tables(p.grid)
		n, size := p.ev.N(), p.grid.Size()
		constraints := []*Constraints{
			nil,
			{Classes: []int{p.grid.Classes() - 1}},
			{MaxTotalProcs: 7},
			{MaxBytesPerPE: 8 * n * n * 0.5},
		}
		split := []IndexRange{{Lo: 0, Hi: size / 3}, {Lo: size / 3, Hi: size / 2}, {Lo: size / 2, Hi: size}}
		ranges := []*IndexRange{nil, &split[0], &split[1], &split[2]}
		var reuse Reusable
		for ci, cons := range constraints {
			for _, k := range []int{1, 3, int(size)} {
				lists := make([][]parallel.Candidate, 0, len(split))
				for ri, rg := range ranges {
					want, wantSize := bruteForce(p.ev, p.grid, rg, cons, k)
					if ri > 0 {
						lists = append(lists, want)
					}
					label := fmt.Sprintf("%s cons %d k=%d range %d", p.name, ci, k, ri)
					lo, hi := int64(0), size
					if rg != nil {
						lo, hi = rg.Lo, rg.Hi
					}
					v1, _ := v1Offers(p.grid, tbl, lo, hi, emptyIndex(p.grid), cons.FilterFunc(n, p.grid.Classes()))
					if len(v1) > k {
						v1 = v1[:k]
					}
					if fmt.Sprint(v1) != fmt.Sprint(want) {
						t.Fatalf("%s: v1 oracle %v, brute force %v", label, v1, want)
					}
					opts := SearchOptions{TopK: k, Range: rg, Constraints: cons}
					var seq *SearchResult
					for _, workers := range []int{1, 2, 8} {
						opts.Workers = workers
						got, err := p.ev.Search(p.grid, opts)
						checkAgainst(t, fmt.Sprintf("%s w=%d", label, workers), p.grid, got, err, want, wantSize, rg != nil)
						if workers == 1 {
							seq = got
						}
					}
					got, err := p.ev.SearchReuse(p.grid, opts, &reuse)
					checkAgainst(t, label+" reuse", p.grid, got, err, want, wantSize, rg != nil)
					if seq != nil && (got.Scored != seq.Scored || got.Pruned != seq.Pruned) {
						t.Fatalf("%s: SearchReuse accounts (%d, %d), Search(Workers: 1) (%d, %d)",
							label, got.Scored, got.Pruned, seq.Scored, seq.Pruned)
					}
				}
				// The split's per-range answers merge to the full one.
				full, _ := bruteForce(p.ev, p.grid, nil, cons, k)
				if merged := parallel.MergeTopK(k, lists); fmt.Sprint(merged) != fmt.Sprint(full) {
					t.Fatalf("%s cons %d k=%d: split ranges merge to %v, full search %v", p.name, ci, k, merged, full)
				}
			}
		}
	}
}

// TestSearchTopKClamped is the regression test for the unbounded-K crash:
// a TopK far beyond the grid used to size the selection heaps directly
// (fatal out-of-memory at 1<<40); clamped to the searched range's candidate
// count it returns every scorable candidate ranked, exactly as TopK = Size.
func TestSearchTopKClamped(t *testing.T) {
	ev := richWorld(t, nil).Compile(6400)
	grid, err := cluster.PaperEvaluationSpace().Compile()
	if err != nil {
		t.Fatal(err)
	}
	shard := &IndexRange{Lo: 10, Hi: 30}
	for _, rg := range []*IndexRange{nil, shard} {
		want, size := bruteForce(ev, grid, rg, nil, int(grid.Size()))
		if len(want) < 2 {
			t.Fatalf("vacuous: brute force ranked %d", len(want))
		}
		var r Reusable
		for _, k := range []int{int(grid.Size()), 1 << 40, math.MaxInt} {
			for _, workers := range []int{1, 2} {
				got, err := ev.Search(grid, SearchOptions{Workers: workers, TopK: k, Range: rg})
				checkAgainst(t, fmt.Sprintf("k=%d w=%d", k, workers), grid, got, err, want, size, rg != nil)
			}
			got, err := ev.SearchReuse(grid, SearchOptions{TopK: k, Range: rg}, &r)
			checkAgainst(t, fmt.Sprintf("k=%d reuse", k), grid, got, err, want, size, rg != nil)
		}
	}
}
