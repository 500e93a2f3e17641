package parallel

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the sharded streaming-search primitives: ascending chunk
// claiming over an int64 index range, per-worker top-K selection with a
// deterministic (score, index) order, and an atomic shared threshold for
// cross-worker pruning bounds. The determinism contract matches ForEach:
// the merged result of a search is a pure function of the scores, not of
// goroutine scheduling, because candidates are ranked by (score, index) —
// a total order — and pruning (done by callers against Threshold and
// SharedThreshold) may only discard candidates that rank strictly worse
// than any result.

// Candidate couples a score with the index that produced it; the index is
// the deterministic tie-break.
type Candidate struct {
	Index int64
	Score float64
}

// ranksAfter reports whether a ranks strictly after b: higher score loses,
// equal scores lose to the lower index.
func (a Candidate) ranksAfter(b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index > b.Index
}

// TopK keeps the k best (lowest-score, then lowest-index) candidates seen
// so far. The zero value is unusable; call NewTopK. Not safe for concurrent
// use — each worker owns one and the owner merges them with MergeTopK.
type TopK struct {
	k int
	// h is a binary max-heap by (score, index): h[0] is the candidate that
	// the next better offer evicts.
	h []Candidate
}

// NewTopK returns a selector for the k best candidates (k >= 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, h: make([]Candidate, 0, k)}
}

// Offer considers one candidate and reports whether it entered the
// selection (so callers know the Threshold may have tightened). Scores of
// +Inf and NaN are never kept (+Inf means "excluded" and NaN is unordered,
// so neither can ever win the optimizer's strict-improvement scan).
func (t *TopK) Offer(idx int64, score float64) bool {
	if math.IsInf(score, 1) || math.IsNaN(score) {
		return false
	}
	c := Candidate{Index: idx, Score: score}
	if len(t.h) < t.k {
		// NewTopK reserves capacity k and this branch runs only while
		// len < k, so the append reuses that reservation — but the guard
		// compares against k, not cap, which is beyond the analyzers'
		// len<cap whitelist.
		t.h = append(t.h, c) //het:allow hotpathprop allocfree -- heap bounded by k: NewTopK pre-reserves cap k and this append runs only while len < k
		t.up(len(t.h) - 1)
		return true
	}
	if !t.h[0].ranksAfter(c) {
		return false
	}
	t.h[0] = c
	t.down(0)
	return true
}

// K returns the selection size the selector was built for.
func (t *TopK) K() int { return t.k }

// Reset empties the selection, keeping the heap's capacity, so
// buffer-reusing searches (core's SearchReuse) stay allocation-free across
// calls.
func (t *TopK) Reset() { t.h = t.h[:0] }

// Threshold returns the score of the current k-th best candidate, or +Inf
// while fewer than k candidates are held. A candidate whose score is
// strictly greater than Threshold cannot enter the selection, so it is a
// safe pruning bound.
func (t *TopK) Threshold() float64 {
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0].Score
}

// Sorted returns the held candidates best-first.
func (t *TopK) Sorted() []Candidate {
	return t.SortInto(nil)
}

// SortInto appends the held candidates best-first to dst and returns the
// extended slice; it allocates only when dst must grow, so buffer-reusing
// callers extract results allocation-free. The (score, index) ranking is a
// total order over distinct candidates, so the output is unique.
func (t *TopK) SortInto(dst []Candidate) []Candidate {
	start := len(dst)
	dst = append(dst, t.h...)
	slices.SortFunc(dst[start:], func(a, b Candidate) int {
		switch {
		case a.ranksAfter(b):
			return 1
		case b.ranksAfter(a):
			return -1
		}
		return 0
	})
	return dst
}

// Contains reports whether a candidate with the given index is currently
// held — a linear scan over at most k entries. Threshold seeding uses it to
// avoid offering one candidate twice: a duplicate would let a single
// configuration fill two selection slots and push the k-th score below the
// true subset k-th, breaking the pruning-bound guarantee. The scan covers
// only held entries, which suffices: a candidate evicted once can never
// re-enter (it ranked after every survivor, and the selection only
// tightens), so a re-offer of an evicted index is rejected by Offer anyway.
func (t *TopK) Contains(idx int64) bool {
	for i := range t.h {
		if t.h[i].Index == idx {
			return true
		}
	}
	return false
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.h[i].ranksAfter(t.h[parent]) {
			return
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

func (t *TopK) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.h) && t.h[l].ranksAfter(t.h[worst]) {
			worst = l
		}
		if r < len(t.h) && t.h[r].ranksAfter(t.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// MergeTopK combines per-worker selections into the global k best,
// best-first. The result is independent of the list order and of how
// candidates were distributed across lists.
func MergeTopK(k int, lists [][]Candidate) []Candidate {
	if k < 1 {
		k = 1
	}
	merged := NewTopK(k)
	for _, l := range lists {
		for _, c := range l {
			merged.Offer(c.Index, c.Score)
		}
	}
	return merged.Sorted()
}

// SharedThreshold is the cross-worker pruning bound of a sharded top-K
// search: an atomic, monotonically decreasing float64 holding the minimum
// over the per-worker k-th-best thresholds the workers publish after each
// accepted offer. Load is an upper bound on the global k-th best score —
// some single worker already holds k candidates at or below it — so a
// subtree whose τ lower bound is strictly greater than Load holds only
// candidates that rank strictly after at least k others globally and can
// never enter the merged top-K. Strict-compare pruning against it is
// therefore result-identical at any worker count; with k == 1 it is the
// plain incumbent bound. Publishing +Inf (a worker holding fewer than k
// candidates) never lowers the bound, and per-worker thresholds are monotone
// non-increasing, so the bound only tightens. The zero value holds 0, not
// +Inf: start from NewSharedThreshold or call Reset first.
type SharedThreshold struct{ bits atomic.Uint64 }

// NewSharedThreshold returns a shared top-K threshold initialized to +Inf.
func NewSharedThreshold() *SharedThreshold {
	t := &SharedThreshold{}
	t.Reset()
	return t
}

// Load returns the current bound.
func (t *SharedThreshold) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Update lowers the bound to v if v is smaller. NaN is ignored.
func (t *SharedThreshold) Update(v float64) {
	for {
		old := t.bits.Load()
		if !(v < math.Float64frombits(old)) {
			return
		}
		if t.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Reset returns the bound to +Inf, so buffer-reusing searches can recycle
// one instance. Never call it while workers still publish.
func (t *SharedThreshold) Reset() { t.bits.Store(math.Float64bits(math.Inf(1))) }

// Chunks runs fn over ascending chunks of [0, n) on up to `workers`
// goroutines (<= 0 selects GOMAXPROCS, 1 runs fn(0, 0, n) inline). Chunks
// are claimed in ascending order; fn receives the claiming worker's index
// in [0, workers) so callers can keep per-worker accumulators without
// locking. Chunks returns after every fn call has finished.
func Chunks(n, chunk int64, workers int, fn func(worker int, lo, hi int64)) int {
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = 1
	}
	nchunks := (n + chunk - 1) / chunk
	wmax := nchunks
	if wmax > int64(1<<20) {
		wmax = 1 << 20
	}
	w := Workers(workers, int(wmax))
	if w == 1 {
		fn(0, 0, n)
		return 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				c := next.Add(1) - 1
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(worker, lo, hi)
			}
		}(i)
	}
	wg.Wait()
	return w
}
