package parallel

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

func TestTopKKeepsBestByScoreThenIndex(t *testing.T) {
	tk := NewTopK(3)
	for idx, score := range []float64{5, 1, 4, 1, 3, 2} {
		tk.Offer(int64(idx), score)
	}
	got := tk.Sorted()
	want := []Candidate{{Index: 1, Score: 1}, {Index: 3, Score: 1}, {Index: 5, Score: 2}}
	if len(got) != len(want) {
		t.Fatalf("Sorted() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTopKRejectsInfAndNaN(t *testing.T) {
	tk := NewTopK(2)
	tk.Offer(0, math.Inf(1))
	tk.Offer(1, math.NaN())
	if got := tk.Sorted(); len(got) != 0 {
		t.Fatalf("kept unrankable scores: %v", got)
	}
	if !math.IsInf(tk.Threshold(), 1) {
		t.Fatal("threshold moved")
	}
	tk.Offer(2, math.Inf(-1)) // -Inf is an ordinary (very good) score
	if got := tk.Sorted(); len(got) != 1 || !math.IsInf(got[0].Score, -1) {
		t.Fatalf("-Inf not kept: %v", got)
	}
}

func TestTopKThreshold(t *testing.T) {
	tk := NewTopK(2)
	if !math.IsInf(tk.Threshold(), 1) {
		t.Fatal("unfilled selector must not bound anything")
	}
	tk.Offer(0, 7)
	if !math.IsInf(tk.Threshold(), 1) {
		t.Fatal("threshold must stay +Inf until k candidates are held")
	}
	tk.Offer(1, 3)
	if tk.Threshold() != 7 {
		t.Fatalf("Threshold() = %v, want 7", tk.Threshold())
	}
	tk.Offer(2, 5)
	if tk.Threshold() != 5 {
		t.Fatalf("Threshold() = %v after eviction, want 5", tk.Threshold())
	}
}

// TestMergeTopKMatchesGlobalSort: merging arbitrary partitions of a
// candidate stream equals the global (score, index) sort.
func TestMergeTopKMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, k = 500, 7
	all := make([]Candidate, n)
	for i := range all {
		all[i] = Candidate{Index: int64(i), Score: float64(rng.Intn(40))} // many ties
	}
	ref := append([]Candidate(nil), all...)
	sort.Slice(ref, func(i, j int) bool { return ref[j].ranksAfter(ref[i]) })
	ref = ref[:k]
	for trial := 0; trial < 20; trial++ {
		nshards := 1 + rng.Intn(8)
		shards := make([]*TopK, nshards)
		for i := range shards {
			shards[i] = NewTopK(k)
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			shards[rng.Intn(nshards)].Offer(all[i].Index, all[i].Score)
		}
		lists := make([][]Candidate, nshards)
		for i, sh := range shards {
			lists[i] = sh.Sorted()
		}
		got := MergeTopK(k, lists)
		if len(got) != k {
			t.Fatalf("trial %d: merged %d candidates", trial, len(got))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d rank %d: %v, want %v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestChunksCoversRangeOnce: every index appears in exactly one chunk,
// chunks are aligned, and worker ids are in range.
func TestChunksCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct {
		n, chunk int64
		workers  int
	}{
		{n: 10, chunk: 3, workers: 1},
		{n: 10, chunk: 3, workers: 4},
		{n: 1000, chunk: 7, workers: 0},
		{n: 5, chunk: 100, workers: 8},
		{n: 0, chunk: 4, workers: 2},
	} {
		var mu atomicBitmap
		mu.init(tc.n)
		used := Chunks(tc.n, tc.chunk, tc.workers, func(worker int, lo, hi int64) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("bad chunk [%d, %d)", lo, hi)
			}
			if lo%tc.chunk != 0 {
				t.Errorf("chunk start %d not aligned to %d", lo, tc.chunk)
			}
			for i := lo; i < hi; i++ {
				if !mu.setOnce(i) {
					t.Errorf("index %d covered twice", i)
				}
			}
		})
		if tc.n == 0 {
			if used != 0 {
				t.Fatalf("n=0 used %d workers", used)
			}
			continue
		}
		if used < 1 {
			t.Fatalf("no workers used for n=%d", tc.n)
		}
		if miss := mu.firstUnset(tc.n); miss >= 0 {
			t.Fatalf("index %d never covered (n=%d chunk=%d workers=%d)", miss, tc.n, tc.chunk, tc.workers)
		}
	}
}

func TestChunksSingleWorkerInline(t *testing.T) {
	calls := 0
	used := Chunks(100, 10, 1, func(worker int, lo, hi int64) {
		calls++
		if worker != 0 || lo != 0 || hi != 100 {
			t.Fatalf("inline call got (%d, %d, %d)", worker, lo, hi)
		}
	})
	if used != 1 || calls != 1 {
		t.Fatalf("used=%d calls=%d", used, calls)
	}
}

// atomicBitmap tracks per-index coverage race-free.
type atomicBitmap struct{ bits []atomic.Bool }

func (b *atomicBitmap) init(n int64)         { b.bits = make([]atomic.Bool, n) }
func (b *atomicBitmap) setOnce(i int64) bool { return b.bits[i].CompareAndSwap(false, true) }
func (b *atomicBitmap) firstUnset(n int64) int64 {
	for i := int64(0); i < n; i++ {
		if !b.bits[i].Load() {
			return i
		}
	}
	return -1
}

func TestSharedThreshold(t *testing.T) {
	th := NewSharedThreshold()
	if !math.IsInf(th.Load(), 1) {
		t.Fatal("fresh SharedThreshold must be +Inf (no bound)")
	}
	th.Update(math.Inf(1)) // unfilled selectors publish +Inf: no-op
	if !math.IsInf(th.Load(), 1) {
		t.Fatal("+Inf publish moved the bound")
	}
	th.Update(8)
	th.Update(12)         // weaker bound: ignored
	th.Update(math.NaN()) // ignored
	if th.Load() != 8 {
		t.Fatalf("Load() = %v, want 8", th.Load())
	}
	th.Update(3)
	if th.Load() != 3 {
		t.Fatalf("Load() = %v, want 3", th.Load())
	}
	th.Reset()
	if !math.IsInf(th.Load(), 1) {
		t.Fatal("Reset must clear the bound")
	}
}

func TestSharedThresholdConcurrentTightensMonotonically(t *testing.T) {
	th := NewSharedThreshold()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			prev := math.Inf(1)
			for i := 0; i < 2000; i++ {
				th.Update(float64((g*2000+i)%977) + 1)
				if v := th.Load(); v > prev {
					t.Errorf("bound loosened: %v after %v", v, prev)
					break
				} else {
					prev = v
				}
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if th.Load() != 1 {
		t.Fatalf("final bound = %v, want 1", th.Load())
	}
}

func TestTopKOfferReportsAcceptance(t *testing.T) {
	tk := NewTopK(2)
	if !tk.Offer(0, 5) || !tk.Offer(1, 3) {
		t.Fatal("offers into an unfilled selector must be accepted")
	}
	if tk.Offer(2, 9) {
		t.Fatal("score above the threshold must be rejected")
	}
	if tk.Offer(3, 5) {
		t.Fatal("tie with higher index must be rejected (ranks after)")
	}
	if !tk.Offer(4, 4) {
		t.Fatal("improving score must be accepted")
	}
	if tk.Offer(5, math.NaN()) || tk.Offer(6, math.Inf(1)) {
		t.Fatal("unrankable scores must be rejected")
	}
}

func TestTopKResetAndK(t *testing.T) {
	tk := NewTopK(3)
	if tk.K() != 3 {
		t.Fatalf("K() = %d", tk.K())
	}
	tk.Offer(0, 1)
	tk.Offer(1, 2)
	tk.Reset()
	if got := tk.Sorted(); len(got) != 0 {
		t.Fatalf("Reset left %v", got)
	}
	if !math.IsInf(tk.Threshold(), 1) {
		t.Fatal("Reset must restore the unfilled threshold")
	}
	tk.Offer(7, 4)
	if got := tk.Sorted(); len(got) != 1 || got[0] != (Candidate{Index: 7, Score: 4}) {
		t.Fatalf("post-Reset selection = %v", got)
	}
}

func TestTopKSortInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		tk := NewTopK(k)
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			tk.Offer(int64(i), float64(rng.Intn(8)))
		}
		want := tk.Sorted()
		buf := make([]Candidate, 0, k)
		got := tk.SortInto(buf[:0])
		if len(got) != len(want) {
			t.Fatalf("trial %d: SortInto %v, Sorted %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %v, want %v", trial, i, got[i], want[i])
			}
		}
		if len(got) > 0 && len(got) <= cap(buf) && &got[0] != &buf[:1][0] {
			t.Fatalf("trial %d: SortInto reallocated despite sufficient capacity", trial)
		}
	}
}

// TestTopKContains pins the membership scan the seeded-threshold dedup path
// depends on: present exactly for held candidates, false before any offer,
// false after eviction, and a re-offer of an evicted index must be rejected
// (the property that lets Contains scan only held entries).
func TestTopKContains(t *testing.T) {
	tk := NewTopK(2)
	if tk.Contains(1) {
		t.Fatal("empty selection claims to contain 1")
	}
	tk.Offer(1, 5)
	tk.Offer(2, 3)
	for _, idx := range []int64{1, 2} {
		if !tk.Contains(idx) {
			t.Fatalf("selection lost held index %d", idx)
		}
	}
	if tk.Contains(3) {
		t.Fatal("selection claims an index never offered")
	}
	// A better candidate evicts index 1 (the current worst).
	if !tk.Offer(3, 1) {
		t.Fatal("improving offer rejected")
	}
	if tk.Contains(1) {
		t.Fatal("evicted index still reported as held")
	}
	if !tk.Contains(3) {
		t.Fatal("accepted candidate not reported as held")
	}
	// Re-offering the evicted candidate with its old score must fail: it
	// ranks after every survivor, so Contains need not remember evictions.
	if tk.Offer(1, 5) {
		t.Fatal("re-offer of an evicted candidate was accepted")
	}
	if tk.Contains(1) {
		t.Fatal("rejected re-offer entered the selection")
	}
	tk.Reset()
	if tk.Contains(2) || tk.Contains(3) {
		t.Fatal("Reset left stale membership")
	}
}

// TestTopKContainsDuplicateOffers drives the exact hazard Contains guards
// against in seedThreshold: offering one index twice on a duplicate-score
// stream. Without dedup, the same configuration occupies two of k slots and
// drags the threshold below the true k-th best.
func TestTopKContainsDuplicateOffers(t *testing.T) {
	const k = 3
	tk := NewTopK(k)
	// Adversarial duplicate-τ stream: every candidate scores 7.0.
	for _, idx := range []int64{10, 20, 30} {
		tk.Offer(idx, 7)
	}
	// The k-th best over distinct candidates is 7; a duplicate of a held
	// index must be skipped via Contains, keeping the threshold honest.
	if !tk.Contains(20) {
		t.Fatal("held index not found")
	}
	if got := tk.Threshold(); got != 7 {
		t.Fatalf("threshold %v, want 7", got)
	}
	// The seeding pattern: only offer when not already held.
	if !tk.Contains(10) {
		t.Fatal("dedup scan missed index 10")
	}
	held := tk.Sorted()
	if len(held) != k {
		t.Fatalf("selection holds %d candidates, want %d", len(held), k)
	}
	seen := map[int64]bool{}
	for _, c := range held {
		if seen[c.Index] {
			t.Fatalf("index %d held twice", c.Index)
		}
		seen[c.Index] = true
	}
}
