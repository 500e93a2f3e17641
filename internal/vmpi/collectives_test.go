package vmpi

import (
	"slices"
	"testing"
)

func TestBcastAlgString(t *testing.T) {
	if BcastRing.String() != "ring" || BcastBinomial.String() != "binomial" {
		t.Fatal("BcastAlg strings")
	}
	if BcastAlg(9).String() == "" {
		t.Fatal("unknown alg string empty")
	}
}

func testBcastDelivery(t *testing.T, alg BcastAlg, size, root int) {
	t.Helper()
	w, _ := NewWorld(size, constTransfer(1, 1e6))
	payload := "panel-42"
	mustRun(t, w, func(p *Proc) {
		var in any
		if p.Rank() == root {
			in = payload
		}
		out, elapsed := p.Bcast(root, 5, in, 4096, alg)
		if out.(string) != payload {
			t.Errorf("rank %d got %v", p.Rank(), out)
		}
		if size > 1 && elapsed < 0 {
			t.Errorf("rank %d negative elapsed %v", p.Rank(), elapsed)
		}
	})
}

func TestBcastRingDelivery(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < size; root += 2 {
			testBcastDelivery(t, BcastRing, size, root)
		}
	}
}

func TestBcastBinomialDelivery(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
		for root := 0; root < size; root += 3 {
			testBcastDelivery(t, BcastBinomial, size, root)
		}
	}
}

func TestBcastInvalidRootPanics(t *testing.T) {
	w, _ := NewWorld(2, constTransfer(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustRun(t, w, func(p *Proc) {
		p.Bcast(7, 0, nil, 0, BcastRing)
	})
}

func TestBcastRingCriticalPathGrowsWithP(t *testing.T) {
	// Ring broadcast's last receiver waits ~(P-1) transfers — the
	// (P−1)·O(N²) behaviour the paper's model assumes.
	lastClock := func(size int) float64 {
		w, _ := NewWorld(size, constTransfer(0.001, 1e6))
		clocks := mustRun(t, w, func(p *Proc) {
			var in any
			if p.Rank() == 0 {
				in = 1
			}
			p.Bcast(0, 0, in, 1e5, BcastRing)
		})
		max := 0.0
		for _, c := range clocks {
			if c > max {
				max = c
			}
		}
		return max
	}
	t4, t8 := lastClock(4), lastClock(8)
	if t8 < 1.8*t4 {
		t.Fatalf("ring critical path: P=4 %v, P=8 %v — want roughly linear growth", t4, t8)
	}
}

func TestBcastBinomialFasterThanRingForLargeP(t *testing.T) {
	maxClock := func(alg BcastAlg) float64 {
		w, _ := NewWorld(16, constTransfer(0.001, 1e6))
		clocks := mustRun(t, w, func(p *Proc) {
			var in any
			if p.Rank() == 0 {
				in = 1
			}
			p.Bcast(0, 0, in, 1e5, alg)
		})
		max := 0.0
		for _, c := range clocks {
			if c > max {
				max = c
			}
		}
		return max
	}
	ring, binom := maxClock(BcastRing), maxClock(BcastBinomial)
	if binom >= ring {
		t.Fatalf("binomial (%v) should beat ring (%v) at P=16", binom, ring)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w, _ := NewWorld(4, constTransfer(0.01, 1e9))
	clocks := mustRun(t, w, func(p *Proc) {
		p.Advance(float64(p.Rank() * 10)) // ranks wildly out of sync
		p.Barrier(100)
	})
	// After a barrier all clocks must be >= the max pre-barrier clock.
	for r, c := range clocks {
		if c < 30 {
			t.Fatalf("rank %d clock %v below slowest rank's 30", r, c)
		}
	}
}

func TestBcastSingleRank(t *testing.T) {
	w, _ := NewWorld(1, constTransfer(0, 1))
	mustRun(t, w, func(p *Proc) {
		out, elapsed := p.Bcast(0, 0, "x", 100, BcastRing)
		if out.(string) != "x" || elapsed != 0 {
			t.Errorf("single-rank bcast: %v %v", out, elapsed)
		}
		if p.Barrier(1) != 0 {
			t.Error("single-rank barrier should be free")
		}
	})
}

// TestTreeMatchesLoopForms holds Tree against the loop-written ring and
// binomial walks it replaces: the same parent and the same children in the
// same order, for every virtual rank of every size up to 70.
func TestTreeMatchesLoopForms(t *testing.T) {
	walk := func(alg BcastAlg, v, n int) (parent int, children []int) {
		if alg == BcastRing {
			parent = v - 1
			if v+1 < n {
				children = []int{v + 1}
			}
			return parent, children
		}
		parent, mask := -1, 1
		if v != 0 {
			for v&mask == 0 {
				mask <<= 1
			}
			parent = v &^ mask
		} else {
			for mask < n {
				mask <<= 1
			}
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if v+mask < n {
				children = append(children, v+mask)
			}
		}
		return parent, children
	}
	for _, alg := range []BcastAlg{BcastRing, BcastBinomial} {
		for n := 1; n <= 70; n++ {
			reached := make([]int, n)
			for v := 0; v < n; v++ {
				parent, first := alg.Tree(v, n)
				var children []int
				for m := first; m > 0; m >>= 1 {
					children = append(children, v+m)
					reached[v+m]++
				}
				wantParent, wantChildren := walk(alg, v, n)
				if parent != wantParent || !slices.Equal(children, wantChildren) {
					t.Fatalf("%v n=%d v=%d: parent %d children %v, want %d %v", alg, n, v, parent, children, wantParent, wantChildren)
				}
			}
			for v := 1; v < n; v++ {
				if reached[v] != 1 {
					t.Fatalf("%v n=%d: virtual rank %d reached %d times", alg, n, v, reached[v])
				}
			}
		}
	}
}
