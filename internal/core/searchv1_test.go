package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hetmodel/internal/cluster"
	"hetmodel/internal/parallel"
)

// searchRangeV1 is the recursive closure-based walker the iterative odometer
// kernel replaced, kept verbatim as the reference implementation (it never
// used its former Evaluator receiver). The bit-identity tests below prove
// the new kernel offers exactly the same (index, τ) stream, so the v1
// semantics survive in the production walker.
func searchRangeV1(grid *cluster.Grid, t *gridTables, lo, hi, emptyIdx int64,
	prune bool, filter func(cfg cluster.Configuration) bool,
	bound func() float64, offer func(idx int64, tau float64)) (scored, pruned int64) {
	classes := grid.Classes()
	digits := make([]int, classes)
	var fcfg cluster.Configuration
	if filter != nil {
		fcfg = cluster.Configuration{Use: make([]cluster.ClassUse, classes)}
	}
	var walk func(depth int, base int64, curMax float64)
	walk = func(depth int, base int64, curMax float64) {
		if depth == classes {
			if base == emptyIdx {
				return
			}
			if filter != nil {
				for ci, j := range digits {
					fcfg.Use[ci] = grid.Pairs(ci)[j]
				}
				if !filter(fcfg) {
					scored++
					return
				}
			}
			// Leaf: P and τ from the digit contributions.
			p := 0
			for ci, j := range digits {
				p += t.pw[ci][j]
			}
			tau := math.Inf(-1)
			for ci, j := range digits {
				row := t.contrib[ci][j]
				if row == nil {
					continue // unused class
				}
				v := row[p]
				if math.IsNaN(v) {
					scored++
					return // unscorable candidate, skipped like Optimize does
				}
				if v > tau {
					tau = v
				}
			}
			scored++
			offer(base, tau)
			return
		}
		stride := grid.Stride(depth)
		pairs := grid.Pairs(depth)
		for j := range pairs {
			s := base + int64(j)*stride
			e := s + stride
			if e <= lo || s >= hi {
				continue
			}
			b := curMax
			if v := t.lb[depth][j]; v > b {
				b = v
			}
			if prune && b > bound() {
				olo, ohi := s, e
				if olo < lo {
					olo = lo
				}
				if ohi > hi {
					ohi = hi
				}
				pruned += ohi - olo
				if olo <= emptyIdx && emptyIdx < ohi {
					pruned--
				}
				continue
			}
			digits[depth] = j
			walk(depth+1, s, b)
		}
	}
	walk(0, 0, math.Inf(-1))
	return scored, pruned
}

// v1Offers runs the reference walker unpruned over [lo, hi) and returns its
// complete offer stream sorted by the (τ, index) ranking — with pruning off
// that stream is every scorable, filter-passing candidate with its exact τ.
func v1Offers(grid *cluster.Grid, t *gridTables, lo, hi, emptyIdx int64,
	filter func(cfg cluster.Configuration) bool) (offers []parallel.Candidate, scored int64) {
	scored, _ = searchRangeV1(grid, t, lo, hi, emptyIdx, false, filter,
		func() float64 { return math.Inf(1) },
		func(idx int64, tau float64) {
			if !math.IsInf(tau, 1) && !math.IsNaN(tau) { // what TopK would keep
				offers = append(offers, parallel.Candidate{Index: idx, Score: tau})
			}
		})
	sort.Slice(offers, func(i, j int) bool {
		if offers[i].Score != offers[j].Score {
			return offers[i].Score < offers[j].Score
		}
		return offers[i].Index < offers[j].Index
	})
	return offers, scored
}

// TestKernelOffersBitIdenticalToV1 is the replacement proof: over the paper
// grid, randomized grids and the tie-heavy grid — full range and random
// sub-ranges — a v2 search returning every candidate (TopK = Size, under
// which the top-K threshold stays +Inf until the last offer, so no bound can
// fire) reproduces the unpruned v1 walker's offer stream bit for bit: same
// indices, same Float64bits of every τ, same scored count. Constraints ride
// the same oracle in TestKernelConstraintsRangeMatchesV1.
func TestKernelOffersBitIdenticalToV1(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	worlds := map[string]*ModelSet{"rich": richWorld(t, nil), "ties": tieWorld(t)}
	for name, ms := range worlds {
		for si, space := range evalSpaces() {
			grid, err := space.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if grid.Size() == 0 {
				continue
			}
			for _, n := range []float64{2400, 6400} {
				ev := ms.Compile(n)
				tbl := ev.tables(grid)
				if tbl == nil {
					t.Fatalf("%s space %d: no dense tables", name, si)
				}
				emptyIdx := emptyIndex(grid)
				ranges := []IndexRange{{Lo: 0, Hi: grid.Size()}}
				for i := 0; i < 3; i++ {
					lo := rng.Int63n(grid.Size() + 1)
					hi := lo + rng.Int63n(grid.Size()+1-lo)
					ranges = append(ranges, IndexRange{Lo: lo, Hi: hi})
				}
				for _, rr := range ranges {
					rr := rr
					want, wantScored := v1Offers(grid, tbl, rr.Lo, rr.Hi, emptyIdx, nil)
					k := int(grid.Size()) // >= count of scorable candidates
					got, err := ev.Search(grid, SearchOptions{Workers: 1, TopK: k, Range: &rr})
					if err != nil {
						if len(want) == 0 {
							continue // both agree: nothing scorable
						}
						t.Fatalf("%s space %d n=%v [%d,%d): v2 failed (%v), v1 offered %d",
							name, si, n, rr.Lo, rr.Hi, err, len(want))
					}
					if len(got.Best) != len(want) {
						t.Fatalf("%s space %d n=%v [%d,%d): v2 offered %d candidates, v1 %d",
							name, si, n, rr.Lo, rr.Hi, len(got.Best), len(want))
					}
					for i := range want {
						if got.BestIndex[i] != want[i].Index ||
							math.Float64bits(got.Best[i].Tau) != math.Float64bits(want[i].Score) {
							t.Fatalf("%s space %d n=%v [%d,%d) rank %d: v2 (%d, %x) vs v1 (%d, %x)",
								name, si, n, rr.Lo, rr.Hi, i,
								got.BestIndex[i], math.Float64bits(got.Best[i].Tau),
								want[i].Index, math.Float64bits(want[i].Score))
						}
					}
					if got.Scored != wantScored {
						t.Fatalf("%s space %d n=%v [%d,%d): v2 scored %d, v1 %d (neither pruned)",
							name, si, n, rr.Lo, rr.Hi, got.Scored, wantScored)
					}
				}
			}
		}
	}
}

// TestKernelPrunedMatchesV1Pruned compares the two walkers with their own
// pruning on: a v1 sequential engine (private top-K threshold bound, as the
// pre-SharedThreshold Search ran per worker) against the v2 kernel at
// several worker counts. Both prune with strict compares, so both must land
// on the identical ranked answer.
func TestKernelPrunedMatchesV1Pruned(t *testing.T) {
	for name, ms := range map[string]*ModelSet{"rich": richWorld(t, nil), "ties": tieWorld(t)} {
		for si, space := range evalSpaces() {
			grid, err := space.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if grid.Size() < 2 {
				continue
			}
			ev := ms.Compile(6400)
			tbl := ev.tables(grid)
			emptyIdx := emptyIndex(grid)
			for _, k := range []int{1, 3} {
				topk := parallel.NewTopK(k)
				scored, pruned := searchRangeV1(grid, tbl, 0, grid.Size(), emptyIdx, true, nil,
					topk.Threshold, func(idx int64, tau float64) { topk.Offer(idx, tau) })
				want := topk.Sorted()
				if scored+pruned != grid.Size()-boolToInt64(emptyIdx >= 0) {
					t.Fatalf("%s space %d k=%d: v1 accounting %d+%d != %d",
						name, si, k, scored, pruned, grid.Size())
				}
				for _, workers := range []int{1, 2, 7} {
					got, err := ev.Search(grid, SearchOptions{Workers: workers, TopK: k})
					if err != nil {
						if len(want) == 0 {
							continue
						}
						t.Fatalf("%s space %d k=%d w=%d: %v", name, si, k, workers, err)
					}
					if len(got.Best) != len(want) {
						t.Fatalf("%s space %d k=%d w=%d: %d results, v1 %d",
							name, si, k, workers, len(got.Best), len(want))
					}
					for i := range want {
						if got.BestIndex[i] != want[i].Index ||
							math.Float64bits(got.Best[i].Tau) != math.Float64bits(want[i].Score) {
							t.Fatalf("%s space %d k=%d w=%d rank %d: (%d, %x) vs v1 (%d, %x)",
								name, si, k, workers, i,
								got.BestIndex[i], math.Float64bits(got.Best[i].Tau),
								want[i].Index, math.Float64bits(want[i].Score))
						}
					}
				}
			}
		}
	}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestKernelConstraintsRangeMatchesV1 extends the oracle to the composition
// the fleet layer actually ships: structural Constraints stacked on a shard
// Range. The v1 walker has no structural path — it sees the constraints only
// as their FilterFunc closure, the documented semantic ground truth — so
// agreement here proves the walker's per-(class, pair) exclusion masks and
// prefix/suffix cap checks remove exactly the closure-rejected candidates
// inside an arbitrary sub-range, with global indices and τ bits intact.
func TestKernelConstraintsRangeMatchesV1(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	worlds := map[string]*ModelSet{"rich": richWorld(t, nil), "ties": tieWorld(t)}
	consSet := []*Constraints{
		{MaxTotalProcs: 9},
		{Classes: []int{0}, MaxTotalProcs: 6},
		{MaxBytesPerPE: 8e7},
		{Classes: []int{0, 1}, MaxTotalProcs: 12, MaxBytesPerPE: 1.2e8},
	}
	const n = 6400.0
	for name, ms := range worlds {
		for si, space := range evalSpaces() {
			grid, err := space.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if grid.Size() == 0 {
				continue
			}
			ev := ms.Compile(n)
			tbl := ev.tables(grid)
			if tbl == nil {
				t.Fatalf("%s space %d: no dense tables", name, si)
			}
			emptyIdx := emptyIndex(grid)
			ranges := []IndexRange{{Lo: 0, Hi: grid.Size()}}
			for i := 0; i < 3; i++ {
				lo := rng.Int63n(grid.Size() + 1)
				hi := lo + rng.Int63n(grid.Size()+1-lo)
				ranges = append(ranges, IndexRange{Lo: lo, Hi: hi})
			}
			for ci, cons := range consSet {
				filter := cons.FilterFunc(n, grid.Classes())
				for _, rr := range ranges {
					rr := rr
					want, _ := v1Offers(grid, tbl, rr.Lo, rr.Hi, emptyIdx, filter)
					got, err := ev.Search(grid, SearchOptions{
						Workers: 1, TopK: int(grid.Size()), Range: &rr, Constraints: cons,
					})
					if err != nil {
						if len(want) == 0 {
							continue // both agree: nothing admissible in range
						}
						t.Fatalf("%s space %d cons %d [%d,%d): v2 failed (%v), v1 offered %d",
							name, si, ci, rr.Lo, rr.Hi, err, len(want))
					}
					if len(got.Best) != len(want) {
						t.Fatalf("%s space %d cons %d [%d,%d): v2 offered %d candidates, v1 %d",
							name, si, ci, rr.Lo, rr.Hi, len(got.Best), len(want))
					}
					for i := range want {
						if got.BestIndex[i] != want[i].Index ||
							math.Float64bits(got.Best[i].Tau) != math.Float64bits(want[i].Score) {
							t.Fatalf("%s space %d cons %d [%d,%d) rank %d: v2 (%d, %x) vs v1 (%d, %x)",
								name, si, ci, rr.Lo, rr.Hi, i,
								got.BestIndex[i], math.Float64bits(got.Best[i].Tau),
								want[i].Index, math.Float64bits(want[i].Score))
						}
					}
					// Structural exclusion moves rejections from Scored to
					// Pruned, so only the sum is comparable across the two.
					if got.Scored+got.Pruned != got.Size {
						t.Fatalf("%s space %d cons %d [%d,%d): accounting %d+%d vs size %d",
							name, si, ci, rr.Lo, rr.Hi, got.Scored, got.Pruned, got.Size)
					}
				}
			}
		}
	}
}
