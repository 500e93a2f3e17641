package core

import (
	"fmt"
	"math"

	"hetmodel/internal/cluster"
	"hetmodel/internal/parallel"
)

// SearchOptions tunes the streaming configuration search.
type SearchOptions struct {
	// Workers bounds the concurrency (<= 0 selects GOMAXPROCS, 1 forces a
	// sequential scan). The winners are identical at any setting.
	Workers int
	// TopK selects how many best candidates to return (<= 0 means 1). It is
	// clamped to the number of candidates in the searched range — a range of
	// S candidates has at most S results — so an absurd K costs nothing.
	TopK int
	// Range, when non-nil, restricts the search to the grid indices in
	// [Lo, Hi). Ranking, pruning and constraints are unchanged — candidates
	// keep their global grid indices — so the union of disjoint ranges
	// covering the grid scores exactly the candidates of a full search, and
	// merging per-range results with parallel.MergeTopK reproduces the full
	// search's top-K bit for bit (the fleet layer's shard/merge invariant).
	// Unlike a full search, a range holding no scorable candidate is not an
	// error: it returns an empty Best, because a shard of a scorable grid
	// can legitimately be barren.
	Range *IndexRange
	// Constraints, when non-nil and non-zero, restrict the candidate set to
	// the configurations they admit. The walker enforces them structurally:
	// disallowed (class, pair) choices zero their subtrees, the total-process
	// cap prunes on prefix-P plus minimum suffix-P, and the per-PE memory
	// bound excludes pairs and subtrees by exact corner bounds.
	Constraints *Constraints
}

// IndexRange is a half-open interval [Lo, Hi) of grid indices. The fleet
// layer partitions a grid into disjoint ranges, one per member planner.
type IndexRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// SearchResult is the outcome of a streaming search.
type SearchResult struct {
	// Best holds the TopK best candidates, best first, ties broken toward
	// the earlier enumeration position.
	Best []Estimate
	// BestIndex holds the global grid index of each Best entry. The
	// (Tau, BestIndex) pairs are what a cross-process merge ranks on:
	// parallel.MergeTopK over per-shard pairs reproduces the unsharded
	// ranking exactly.
	BestIndex []int64
	// Size is the number of distinct candidates in the searched range (the
	// all-unused configuration excluded); disjoint ranges covering the grid
	// have Sizes summing to the full search's.
	Size int64
	// Scored counts candidates actually visited (including ones a leaf-level
	// scorability check rejected); Pruned counts candidates skipped
	// wholesale — by the τ lower bounds or by structural constraint
	// exclusion. Scored+Pruned == Size
	// always; with multiple workers the split between the two depends on
	// timing (the results never do).
	Scored, Pruned int64
}

// OptimizeSpace searches a configuration space at problem size n without
// materializing the candidate slice: the space is compiled to a grid, the
// model set to an evaluator, and grid indices are streamed through a
// sharded search with deterministic lowest-index tie-breaking. The winner
// is identical to Optimize over space.Enumerate(), at any worker count.
func (ms *ModelSet) OptimizeSpace(space cluster.Space, n int, opts SearchOptions) (*SearchResult, error) {
	grid, err := space.Compile()
	if err != nil {
		return nil, err
	}
	return ms.Compile(float64(n)).Search(grid, opts)
}

// gridTables holds the per-grid dense precomputation the walker reads: for
// every class and distinct process count M, the class contribution to τ at
// every achievable total process count P; per (class, pair) the pair's
// process weight and a lower bound on its contribution; and per depth the
// suffix accumulators that bound what the remaining classes can still do.
type gridTables struct {
	// pw[ci][j] is the process count pair j of class ci contributes to P.
	pw [][]int
	// contrib[ci][j][P] is the class contribution; NaN marks "no model",
	// +Inf a scorable entry the §3.4 memory rule excludes. nil for unused
	// pairs (they contribute nothing). Without such a rule, pairs of one class
	// with equal Procs share one row: the contribution depends only on
	// (class, M, P), and a leaf always reads the row at a total P covering
	// the pair's own process weight, so the rows' low-P entries (below the
	// sharing pair's weight) are never consulted on its behalf.
	contrib [][][]float64
	// lb[ci][j] is min over P >= pw[ci][j] of contrib (the τ lower bound of
	// any candidate using the pair); -Inf for unused pairs, +Inf when no P
	// is scorable.
	lb [][]float64
	// winmin[ci][j][p] is min over q in [p, p+W] of contrib[ci][j][q] (NaN
	// entries ignored, +Inf when none are scorable, window clamped to maxP),
	// where W = sufMaxP[ci+1]-sufMinP[ci+1] is the process-count spread the
	// classes after ci can add. A class sits at exactly one odometer depth,
	// so one window width per class suffices; shared per (class, M) like
	// contrib, nil for unused pairs. The walker evaluates it at the
	// subtree's minimum reachable total P — prefix P + pair weight + the
	// remaining classes' minimum weight — so the window spans exactly the
	// total process counts the subtree's leaves can reach, a per-subtree
	// bound far sharper than the static lb (the same row's minimum over
	// every P the pair could ever see).
	winmin [][][]float64
	// colmin[ci][q] aggregates winmin across the class's scorable pairs:
	// min over every pair j with a contribution row of winmin[ci][j][q+pw],
	// where q is the subtree's minimum reachable total P before choosing
	// the class's pair. One compare at node entry against colmin bounds all
	// of the class's scorable pairs at once — when it exceeds the shared
	// threshold, the walker skips the whole contiguous run of non-zero
	// pairs and only descends the zero pair (whose subtree the prefix and
	// suffix bounds still govern). Entries whose q+pw would exceed maxP are
	// unreachable at the class's depth and excluded from the min.
	colmin [][]float64
	// firstNZ[ci] is the index of the class's first pair with a
	// contribution row. Zero pairs sort first in the canonical pair order,
	// so [firstNZ, np) is exactly the contiguous run colmin covers.
	firstNZ []int
	// procs[ci][j], strides[ci] and np[ci] mirror the grid's pair process
	// counts, strides and pair counts in flat arrays, so the walk's hot loops
	// touch no grid accessors.
	procs   [][]int
	strides []int64
	np      []int
	// maxP is the maximum achievable total process count of the grid.
	maxP int
	// Suffix accumulators over classes >= d (entry len(classes) covers the
	// empty suffix): sufLB[d] is the unavoidable τ contribution of the
	// remaining classes — the max over those classes of their cheapest
	// pair's lb — and sufMinP/sufMaxP the minimum and maximum process count
	// the remaining classes can add.
	sufLB   []float64
	sufMinP []int
	sufMaxP []int
}

func (ev *Evaluator) compileGrid(grid *cluster.Grid) *gridTables {
	classes := grid.Classes()
	t := &gridTables{
		pw:      make([][]int, classes),
		contrib: make([][][]float64, classes),
		winmin:  make([][][]float64, classes),
		lb:      make([][]float64, classes),
		procs:   make([][]int, classes),
		strides: make([]int64, classes),
		np:      make([]int, classes),
	}
	for ci := 0; ci < classes; ci++ {
		pairs := grid.Pairs(ci)
		t.pw[ci] = make([]int, len(pairs))
		t.procs[ci] = make([]int, len(pairs))
		t.strides[ci] = grid.Stride(ci)
		t.np[ci] = len(pairs)
		for j, u := range pairs {
			t.pw[ci][j] = u.PEs * u.Procs
			t.procs[ci][j] = u.Procs
		}
	}
	// The suffix process-count envelopes need only the pair weights, and the
	// rows pass below needs them to size each class's lookahead window.
	t.sufMinP = make([]int, classes+1)
	t.sufMaxP = make([]int, classes+1)
	for ci := classes - 1; ci >= 0; ci-- {
		minPW, maxPW := 0, 0
		for j, w := range t.pw[ci] {
			if j == 0 || w < minPW {
				minPW = w
			}
			if w > maxPW {
				maxPW = w
			}
		}
		t.sufMinP[ci] = t.sufMinP[ci+1] + minPW
		t.sufMaxP[ci] = t.sufMaxP[ci+1] + maxPW
	}
	t.maxP = t.sufMaxP[0]
	// windowMin's deque and NaN-clean scratch are sized once and shared by
	// every row: each call fully overwrites what it reads.
	winScratch := make([]float64, t.maxP+1)
	winDeque := make([]int, 0, t.maxP+1)
	for ci := 0; ci < classes; ci++ {
		pairs := grid.Pairs(ci)
		t.contrib[ci] = make([][]float64, len(pairs))
		t.winmin[ci] = make([][]float64, len(pairs))
		t.lb[ci] = make([]float64, len(pairs))
		maxM := 0
		for _, u := range pairs {
			if u.Procs > maxM {
				maxM = u.Procs
			}
		}
		// One row per distinct M, shared by every pair running M processes
		// per PE; each pair's lb is the row's suffix minimum at the pair's
		// own process weight (the smallest P a candidate using it can have),
		// and its windowed minima span the later classes' weight spread. A
		// memory rule also reads how the pair's PEs spread over the nodes, so
		// under one every pair, a distinct (PEs, M), compiles its own row.
		width := t.sufMaxP[ci+1] - t.sufMinP[ci+1]
		rows := make([][]float64, maxM+1)
		mins := make([][]float64, maxM+1)
		wins := make([][]float64, maxM+1)
		for j, u := range pairs {
			if u.PEs == 0 {
				t.lb[ci][j] = math.Inf(-1)
				continue
			}
			if rows[u.Procs] == nil || ev.mem != nil {
				rows[u.Procs], mins[u.Procs] = ev.compileRow(ci, u.PEs, u.Procs, t.maxP)
				wins[u.Procs] = windowMin(rows[u.Procs], width, winScratch, winDeque)
			}
			t.contrib[ci][j] = rows[u.Procs]
			t.winmin[ci][j] = wins[u.Procs]
			t.lb[ci][j] = mins[u.Procs][t.pw[ci][j]]
		}
	}
	t.colmin = make([][]float64, classes)
	t.firstNZ = make([]int, classes)
	for ci := 0; ci < classes; ci++ {
		fnz := len(t.winmin[ci])
		for j := range t.winmin[ci] {
			if t.winmin[ci][j] != nil {
				fnz = j
				break
			}
		}
		t.firstNZ[ci] = fnz
		col := make([]float64, t.maxP+1)
		inf := math.Inf(1)
		for q := range col {
			col[q] = inf
		}
		// Pair-major accumulation: each pair folds its winmin row, shifted by
		// its weight, into col — the reachability bound (q + pw <= maxP) is
		// the shifted row's length — instead of re-testing every pair per q.
		for j := fnz; j < len(t.winmin[ci]); j++ {
			wm := t.winmin[ci][j][t.pw[ci][j]:]
			c := col[:len(wm)]
			for q, v := range wm {
				if v < c[q] {
					c[q] = v
				}
			}
		}
		t.colmin[ci] = col
	}
	t.sufLB = make([]float64, classes+1)
	t.sufLB[classes] = math.Inf(-1)
	for ci := classes - 1; ci >= 0; ci-- {
		minLB := math.Inf(1)
		for j := range grid.Pairs(ci) {
			if t.lb[ci][j] < minLB {
				minLB = t.lb[ci][j]
			}
		}
		t.sufLB[ci] = t.sufLB[ci+1]
		if minLB > t.sufLB[ci] {
			t.sufLB[ci] = minLB
		}
	}
	return t
}

// windowMin computes out[p] = min over q in [p, min(p+w, len(row)-1)] of
// row[q], with NaN entries ignored (+Inf when the whole window is NaN) — the
// sliding-window minimum the walker reads as a subtree bound. Monotone-deque
// scan, O(len(row)) regardless of w. xbuf (len >= len(row)) and dqbuf
// (cap >= len(row)) are caller-owned scratch, fully overwritten here, so one
// grid compile allocates them once across all its rows.
func windowMin(row []float64, w int, xbuf []float64, dqbuf []int) []float64 {
	n := len(row)
	out := make([]float64, n)
	x := xbuf[:n]
	for i, v := range row {
		if math.IsNaN(v) {
			x[i] = math.Inf(1)
		} else {
			x[i] = v
		}
	}
	// dq holds indices of the current window [i, i+w] whose values strictly
	// increase front to back; dq[0] is the window minimum. Iterating i
	// downward mirrors the classic rightward sliding window.
	dq := dqbuf[:0]
	for i := n - 1; i >= 0; i-- {
		for len(dq) > 0 && x[dq[len(dq)-1]] >= x[i] {
			dq = dq[:len(dq)-1]
		}
		dq = append(dq, i)
		for dq[0] > i+w {
			dq = dq[1:]
		}
		out[i] = x[dq[0]]
	}
	return out
}

// seedScratch holds the probe buffers seedThreshold reuses across calls, so
// steady-state SearchReuse stays allocation-free.
type seedScratch struct {
	cur []int
	tk  *parallel.TopK
}

// seedThreshold publishes an upper bound on the grid's k-th best τ before
// the walk starts, so subtree pruning bites from the first node instead of
// waiting for the index-ordered odometer to reach competitive candidates.
// The probe set is deterministic coordinate descent over the contribution
// tables: starting from every class at its lightest scorable pair, each
// class in turn tries its whole pair list (including the zero pair) while
// the others hold still, moves to the strict best, and the sweep repeats
// until a full round improves nothing. Every probe is the exact τ of a real
// grid point, computed with leafRun's arithmetic and offered into a scratch
// selection under its grid ordinal — deduplicated via Contains, since one
// configuration filling two slots would push the scratch k-th below the
// true subset k-th. Only the shared threshold is seeded, never the result
// top-K: the probes are re-scored by the walk like any candidate, Offer
// acceptance is untouched, and pruning stays a strict compare against a
// value that upper-bounds the final k-th best (the k-th best of a candidate
// subset), so the ranked results are bit-identical to an unseeded search.
// Callers gate on the unrestricted candidate set — a range or constraint
// could exclude probes while keeping worse-τ candidates in its
// top K, turning the seed into an under-bound. With fewer than k scorable
// probes the threshold stays +Inf.
func seedThreshold(t *gridTables, s *seedScratch, k int, shared *parallel.SharedThreshold) {
	classes := len(t.np)
	if cap(s.cur) < classes {
		s.cur = make([]int, classes)
	}
	cur := s.cur[:classes]
	if s.tk == nil || s.tk.K() != k {
		s.tk = parallel.NewTopK(k)
	} else {
		s.tk.Reset()
	}
	curP := 0
	for ci := 0; ci < classes; ci++ {
		j := t.firstNZ[ci]
		if j >= t.np[ci] {
			j = 0 // no scorable pair: the class sits at its zero pair
		}
		cur[ci] = j
		curP += t.pw[ci][j]
	}
	// seedRounds caps the sweeps so a long descent chain cannot rival the
	// walk it is meant to accelerate; descent usually converges in two.
	const seedRounds = 4
	curTau := math.Inf(1)
	for round := 0; round < seedRounds; round++ {
		improved := false
		for c := 0; c < classes; c++ {
			bestJ := cur[c]
			for j := 0; j < t.np[c]; j++ {
				p := curP - t.pw[c][cur[c]] + t.pw[c][j]
				tau := math.Inf(-1)
				ok := true
				for ci := 0; ci < classes; ci++ {
					jj := cur[ci]
					if ci == c {
						jj = j
					}
					row := t.contrib[ci][jj]
					if row == nil {
						continue
					}
					v := row[p]
					if math.IsNaN(v) {
						ok = false
						break
					}
					if v > tau {
						tau = v
					}
				}
				// Unscorable probes and the no-rows (empty) configuration
				// seed nothing and never become the descent point.
				if !ok || math.IsInf(tau, -1) {
					continue
				}
				ord := int64(0)
				for ci := 0; ci < classes; ci++ {
					jj := cur[ci]
					if ci == c {
						jj = j
					}
					ord += int64(jj) * t.strides[ci]
				}
				if !s.tk.Contains(ord) {
					s.tk.Offer(ord, tau)
				}
				if tau < curTau {
					curTau, bestJ = tau, j
				}
			}
			if bestJ != cur[c] {
				curP += t.pw[c][bestJ] - t.pw[c][cur[c]]
				cur[c] = bestJ
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	shared.Update(s.tk.Threshold())
}

// compileRow fills the dense contribution row of one (class, M) bin over
// P in [0, maxP] — NaN below M and wherever the model has no entry, the
// N-T estimate at P == M, the P-T formula beyond, +Inf wherever the memory
// rule says pes PEs of the class overflow a node — plus the row's suffix
// minima (min over q >= p, NaN ignored, +Inf when empty), from which each
// pair sharing the row derives its lower bound. The P-T coefficients are
// hoisted out of the loop; the per-entry arithmetic is classTau's exact
// operation sequence and the exclusions are Tau's own fits calls, so rows
// are bit-identical to per-candidate scoring.
func (ev *Evaluator) compileRow(class, pes, m, maxP int) (row, sufMin []float64) {
	row = make([]float64, maxP+1)
	for p := range row {
		row[p] = math.NaN()
	}
	if nt := ev.nt[class]; m < len(nt) && m <= maxP {
		row[m] = nt[m] // NaN already marks a missing single-PE bin
	}
	if pt := ev.pt[class]; m < len(pt) {
		e := &pt[m]
		if e.ok {
			for p := m + 1; p <= maxP; p++ {
				pf := float64(p)
				ta := e.taScale * (e.a0/pf + e.ka1)
				tc := e.tcScale * (e.kc0*pf*e.rc + e.c1/pf + e.kc2)
				if e.adjust && (e.extrapAll || p > e.maxFitP) {
					tc = e.adjA*tc + e.adjB
					if tc < 0 {
						tc = 0
					}
				}
				row[p] = ta + tc
			}
		}
	}
	if ev.mem != nil {
		for p := m; p <= maxP; p++ {
			if !math.IsNaN(row[p]) && !ev.mem.fits(class, pes, m, p) {
				row[p] = math.Inf(1)
			}
		}
	}
	sufMin = make([]float64, maxP+2)
	min := math.Inf(1)
	sufMin[maxP+1] = min
	for p := maxP; p >= 0; p-- {
		if v := row[p]; !math.IsNaN(v) && v < min {
			min = v
		}
		sufMin[p] = min
	}
	return row, sufMin
}

// gridTablesEntry is the one-slot cache mapping a grid (by pointer) to its
// compiled tables.
type gridTablesEntry struct {
	grid *cluster.Grid
	t    *gridTables
}

// tables returns the grid's compiled tables, reusing the evaluator's cached
// slot when the same grid searches again (the planner's steady state: one
// long-lived grid, many queries). compileGrid is a pure function of
// (evaluator, grid), so a racing recompute stores an identical value and
// determinism is unaffected.
func (ev *Evaluator) tables(grid *cluster.Grid) *gridTables {
	if e := ev.tcache.Load(); e != nil && e.grid == grid {
		return e.t
	}
	t := ev.compileGrid(grid)
	ev.tcache.Store(&gridTablesEntry{grid: grid, t: t})
	return t
}

// emptyIndex returns the grid index of the all-unused configuration, or -1
// when the grid has none. The zero pair sorts first in every class, so when
// present the empty configuration is always index 0.
func emptyIndex(grid *cluster.Grid) int64 {
	if grid.Size() == 0 {
		return -1
	}
	for ci := 0; ci < grid.Classes(); ci++ {
		pairs := grid.Pairs(ci)
		if len(pairs) == 0 || pairs[0].PEs != 0 {
			return -1
		}
	}
	return 0
}

// Search streams every candidate of the grid through the evaluator and
// returns the TopK best. See OptimizeSpace for the determinism contract.
func (ev *Evaluator) Search(grid *cluster.Grid, opts SearchOptions) (*SearchResult, error) {
	res, err := ev.search(grid, opts, &Reusable{}, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// SearchReuse is the sequential (Workers forced to 1) Search writing into
// r's reused buffers: bit-identical Best/BestIndex/Size/Scored/Pruned to
// Search with Workers: 1 and the same options. Steady-state calls with a
// stable evaluator, grid, TopK and Constraints value allocate nothing (the
// tier-1 TestSearchReuseSteadyStateAllocs pins this on the 10⁶ grid).
func (ev *Evaluator) SearchReuse(grid *cluster.Grid, opts SearchOptions, r *Reusable) (*SearchResult, error) {
	res, err := ev.search(grid, opts, r, 1)
	if err != nil {
		return nil, err
	}
	r.res = res
	return &r.res, nil
}

// Reusable holds the buffers of a search so repeated sequential searches
// over one (evaluator, grid) pair allocate nothing after the first call:
// the per-worker walkers with their top-K selections, the shared bound, the
// compiled constraint plan, the seed scratch and the result backing arrays
// are all recycled. The zero value is ready to use. Not safe for concurrent
// use, and the returned result — including its Best configurations —
// aliases the buffers, valid only until the next call.
type Reusable struct {
	// ev, grid and k key the walkers; cons is a value copy (never the
	// caller's pointer, which may be mutated in place between calls) that
	// keys plan alongside ev and grid — the plan's memory exclusions depend
	// on the evaluator's problem size.
	ev      *Evaluator
	grid    *cluster.Grid
	k       int
	cons    Constraints
	plan    *conPlan
	shared  parallel.SharedThreshold
	walkers []*walker
	seed    seedScratch
	sorted  []parallel.Candidate
	best    []Estimate
	bidx    []int64
	use     []cluster.ClassUse
	res     SearchResult
}

// search is the one search body behind Search and SearchReuse: range and
// empty-configuration accounting, validation, table lookup, constraint plan,
// threshold seed, walk (fanned out over ascending chunks when workers != 1),
// merge and result assembly, all over r's buffers.
func (ev *Evaluator) search(grid *cluster.Grid, opts SearchOptions, r *Reusable, workers int) (SearchResult, error) {
	classes := grid.Classes()
	if classes != ev.classes {
		return SearchResult{}, fmt.Errorf("%w: space has %d classes, model set has %d", ErrNoModel, classes, ev.classes)
	}
	rlo, rhi := int64(0), grid.Size()
	if rg := opts.Range; rg != nil {
		if rg.Lo < 0 || rg.Hi < rg.Lo || rg.Hi > grid.Size() {
			return SearchResult{}, fmt.Errorf("%w: range [%d, %d) outside grid of %d candidates",
				ErrNoModel, rg.Lo, rg.Hi, grid.Size())
		}
		rlo, rhi = rg.Lo, rg.Hi
	}
	if err := opts.Constraints.validate(classes); err != nil {
		return SearchResult{}, err
	}
	res := SearchResult{Size: rhi - rlo}
	// The all-unused configuration is a grid point but not a candidate.
	emptyIdx := emptyIndex(grid)
	if emptyIdx >= 0 && rlo <= emptyIdx && emptyIdx < rhi {
		res.Size--
	}
	if res.Size <= 0 {
		return barren(res, opts.Range != nil)
	}
	// A range of Size candidates has at most Size results, so the clamp is
	// exact — and it keeps every k-sized buffer below bounded by the grid
	// instead of by whatever the wire carried.
	k := opts.TopK
	if k <= 0 {
		k = 1
	}
	if int64(k) > res.Size {
		k = int(res.Size)
	}
	if r.ev != ev || r.grid != grid || r.k != k {
		r.ev, r.grid, r.k, r.plan = ev, grid, k, nil
		clear(r.walkers)
	}

	t := ev.tables(grid)
	var cons *conPlan
	if c := opts.Constraints; !c.zero() {
		if r.plan == nil || !r.cons.equal(c) {
			r.plan = c.compile(grid, t, ev.n)
			r.cons = Constraints{
				Classes:       append(r.cons.Classes[:0], c.Classes...),
				MaxTotalProcs: c.MaxTotalProcs,
				MaxBytesPerPE: c.MaxBytesPerPE,
			}
		}
		cons = r.plan
	}
	r.shared.Reset()
	if cons == nil && rlo == 0 && rhi == grid.Size() {
		seedThreshold(t, &r.seed, k, &r.shared)
	}

	span := rhi - rlo
	nw := 1
	if workers != 1 {
		nw = parallel.Workers(workers, int(min(span, 1<<20)))
	}
	for len(r.walkers) < nw {
		r.walkers = append(r.walkers, nil)
	}
	for _, w := range r.walkers {
		if w != nil {
			w.reset(t, cons, emptyIdx)
		}
	}
	if nw == 1 {
		r.walker(0, t, cons, emptyIdx).walk(rlo, rhi)
	} else {
		// Aim for enough chunks per worker that pruning imbalance
		// load-balances, without making chunk claiming the bottleneck.
		chunk := max(span/int64(nw*64), 1024)
		parallel.Chunks(span, chunk, nw, func(wi int, lo, hi int64) {
			r.walker(wi, t, cons, emptyIdx).walk(rlo+lo, rlo+hi)
		})
	}

	// Merge: every other worker's selection is offered into the first one's.
	// The (τ, index) ranking is a total order, so the k best of the union do
	// not depend on which worker held what.
	var top *parallel.TopK
	for _, w := range r.walkers {
		if w == nil {
			continue
		}
		res.Scored += w.scored
		res.Pruned += w.pruned
		if top == nil {
			top = w.topk
			continue
		}
		r.sorted = w.topk.SortInto(r.sorted[:0])
		for _, c := range r.sorted {
			top.Offer(c.Index, c.Score)
		}
	}
	r.sorted = top.SortInto(r.sorted[:0])
	if len(r.sorted) == 0 {
		return barren(res, opts.Range != nil)
	}
	if need := len(r.sorted) * classes; cap(r.use) < need {
		r.use = make([]cluster.ClassUse, need)
	}
	r.best, r.bidx = r.best[:0], r.bidx[:0]
	for i, c := range r.sorted {
		use := r.use[i*classes : (i+1)*classes : (i+1)*classes]
		grid.At(c.Index, use)
		r.best = append(r.best, Estimate{Config: cluster.Configuration{Use: use}, Tau: c.Score})
		r.bidx = append(r.bidx, c.Index)
	}
	res.Best, res.BestIndex = r.best, r.bidx
	return res, nil
}

// barren is the outcome of a search that ranked nothing: an empty answer for
// a shard (a range of a scorable grid can legitimately hold no scorable
// candidate), ErrNoModel for a whole grid.
func barren(res SearchResult, ranged bool) (SearchResult, error) {
	if ranged {
		return res, nil
	}
	return SearchResult{}, fmt.Errorf("%w: no scorable candidate among %d", ErrNoModel, res.Size)
}

// walker returns worker wi's walker, building it on first use. Workers that
// never claim a chunk never allocate one.
func (r *Reusable) walker(wi int, t *gridTables, cons *conPlan, emptyIdx int64) *walker {
	w := r.walkers[wi]
	if w == nil {
		w = newWalker(r.grid, r.k, &r.shared)
		w.reset(t, cons, emptyIdx)
		r.walkers[wi] = w
	}
	return w
}

// walker is one worker's reusable search kernel: the iterative odometer's
// per-depth accumulators, the stack of contribution rows chosen so far and
// the worker-private top-K selection. A walker is built once per worker and
// reused across every chunk the worker claims, so the steady-state walk
// allocates nothing.
type walker struct {
	// One search's grid tables, compiled constraint plan (nil when
	// unconstrained) and all-unused configuration's grid index (-1 if none).
	t        *gridTables
	cons     *conPlan
	emptyIdx int64

	grid   *cluster.Grid
	topk   *parallel.TopK
	shared *parallel.SharedThreshold

	// Per-depth odometer state (index d describes the subtree whose classes
	// < d are fixed): digits[d] is the pair index being tried at depth d,
	// ibase[d] the subtree's first grid index, prefP[d] the prefix process
	// count, prefM[d] the prefix maximum per-PE process count (the memory
	// law's Mi), bnd[d] the running max of the chosen pairs' τ lower
	// bounds, and nrows[d] how many contribution rows the used prefix pairs
	// pushed onto rows. Descending overwrites the next depth's entries, so
	// ascending needs no undo.
	digits []int
	ibase  []int64
	prefP  []int
	prefM  []int
	bnd    []float64
	nrows  []int
	// nlim[d] is the pair-index limit at depth d: np normally, firstNZ when
	// a node-entry colmin check wholesale-pruned the class's scorable pairs.
	nlim []int
	rows [][]float64

	scored, pruned int64
}

func newWalker(grid *cluster.Grid, k int, shared *parallel.SharedThreshold) *walker {
	classes := grid.Classes()
	return &walker{
		grid: grid, topk: parallel.NewTopK(k), shared: shared,
		digits: make([]int, classes+1),
		ibase:  make([]int64, classes+1),
		prefP:  make([]int, classes+1),
		prefM:  make([]int, classes+1),
		bnd:    make([]float64, classes+1),
		nrows:  make([]int, classes+1),
		nlim:   make([]int, classes+1),
		rows:   make([][]float64, classes),
	}
}

// reset readies the walker for one search.
func (w *walker) reset(t *gridTables, cons *conPlan, emptyIdx int64) {
	w.t, w.cons, w.emptyIdx = t, cons, emptyIdx
	w.topk.Reset()
	w.scored, w.pruned = 0, 0
}

// walk streams the grid indices in [lo, hi) in ascending order: a flat
// odometer over the class digits whose per-depth accumulators (prefix-P,
// prefix max-M, running bound, pushed contribution rows) replace the
// recursive walker's per-leaf re-summation. Subtrees are skipped wholesale
// when disjoint from the range, structurally excluded by the constraints,
// or bounded strictly worse than the shared top-K threshold. Every skip is
// exact: structural exclusions remove exactly the
// candidates the constraints exclude (corner bounds are justified by the
// weak monotonicity of IEEE division and multiplication, leaf checks
// evaluate the caps' defining float expressions), and bound pruning uses
// strict compares against a threshold that is always an upper bound on the
// global k-th best, so it can never drop a tie. The surviving (τ, index)
// ranking — and therefore the merged result — is the brute-force ranking of
// the admitted candidates, at any worker count.
//
//het:hotpath
//het:allocfree
func (w *walker) walk(lo, hi int64) {
	t := w.t
	cons := w.cons
	last := w.grid.Classes() - 1
	if last == 0 {
		w.leafRun(0, lo, hi, 0, 0, math.Inf(-1), 0)
		return
	}
	pen := last - 1 // tailRun covers the two innermost classes
	digits, ibase := w.digits, w.ibase
	prefP, prefM, bnd, nrows := w.prefP, w.prefM, w.bnd, w.nrows
	nlim := w.nlim
	d := 0
	digits[0] = 0
	ibase[0] = 0
	prefP[0] = 0
	prefM[0] = 0
	bnd[0] = math.Inf(-1)
	nrows[0] = 0
	nlim[0] = t.np[0]
	if pen > 0 {
		// Node-entry aggregate bound: if even the best scorable pair of the
		// root class bounds every subtree out, only the zero pair's subtree
		// is walked and the rest is skipped in one span. (When the root is
		// the penultimate class, tailRun's own entry check covers it.)
		eff := t.colmin[0][t.sufMinP[1]]
		if v := t.sufLB[1]; v > eff {
			eff = v
		}
		if eff > w.shared.Load() {
			fnz := t.firstNZ[0]
			st := t.strides[0]
			w.skipSpan(int64(fnz)*st, int64(t.np[0])*st, lo, hi)
			nlim[0] = fnz
		}
	}
	for d >= 0 {
		if d == pen {
			w.tailRun(lo, hi)
			d--
			if d >= 0 {
				digits[d]++
			}
			continue
		}
		j := digits[d]
		if j >= nlim[d] {
			d--
			if d >= 0 {
				digits[d]++
			}
			continue
		}
		stride := t.strides[d]
		s := ibase[d] + int64(j)*stride
		e := s + stride
		if e <= lo || s >= hi {
			digits[d]++
			continue
		}
		pw := t.pw[d][j]
		pm := prefM[d]
		if pr := t.procs[d][j]; pr > pm {
			pm = pr
		}
		if cons != nil {
			if cons.pairOK != nil && !cons.pairOK[d][j] {
				w.skipSpan(s, e, lo, hi)
				digits[d]++
				continue
			}
			// Every leaf below adds at least the remaining classes' minimum
			// process weight, so prefix + pair + min-suffix over the cap
			// means every candidate inside violates it.
			if cons.maxP > 0 && prefP[d]+pw+t.sufMinP[d+1] > cons.maxP {
				w.skipSpan(s, e, lo, hi)
				digits[d]++
				continue
			}
			if cons.memCap > 0 && pm > 0 {
				// Corner bound: per-PE demand Mi·8N²/P is weakly decreasing
				// in P and increasing in Mi. At the subtree's maximum
				// possible P with only the prefix's Mi, the demand is a
				// lower bound on every leaf's — above the cap, all violate.
				pmax := prefP[d] + pw + t.sufMaxP[d+1]
				if cons.mat/float64(pmax)*float64(pm) > cons.memCap {
					w.skipSpan(s, e, lo, hi)
					digits[d]++
					continue
				}
			}
		}
		b := bnd[d]
		if wm := t.winmin[d][j]; wm != nil {
			// Dynamic pair bound: every leaf below runs at a total P inside
			// [prefix+pair+min-suffix, prefix+pair+max-suffix], so the row's
			// windowed minimum there floors the pair's contribution for this
			// whole subtree.
			if v := wm[prefP[d]+pw+t.sufMinP[d+1]]; v > b {
				b = v
			}
		}
		// The remaining classes contribute at least sufLB no matter which
		// pairs they choose, so the subtree's τ floor is the max of the
		// prefix bound and the suffix bound.
		eff := b
		if v := t.sufLB[d+1]; v > eff {
			eff = v
		}
		if eff > w.shared.Load() {
			w.skipSpan(s, e, lo, hi)
			digits[d]++
			continue
		}
		nr := nrows[d]
		if row := t.contrib[d][j]; row != nil {
			w.rows[nr] = row
			nr++
		}
		d++
		digits[d] = 0
		ibase[d] = s
		prefP[d] = prefP[d-1] + pw
		prefM[d] = pm
		bnd[d] = b
		nrows[d] = nr
		nlim[d] = t.np[d]
		if d != pen {
			// Same node-entry aggregate bound for the child: one colmin
			// compare covers all of its scorable pairs (tailRun does its own
			// entry check for the penultimate class).
			eff := b
			if v := t.colmin[d][prefP[d]+t.sufMinP[d+1]]; v > eff {
				eff = v
			}
			if v := t.sufLB[d+1]; v > eff {
				eff = v
			}
			if eff > w.shared.Load() {
				fnz := t.firstNZ[d]
				st := t.strides[d]
				w.skipSpan(s+int64(fnz)*st, s+int64(t.np[d])*st, lo, hi)
				nlim[d] = fnz
			}
		}
	}
}

// tailRun walks the two innermost classes of the subtree fixed by the
// prefix digits (the odometer's hottest levels — for a C-class grid they
// hold all but a 1/(pairs²) fraction of the nodes) with every table row
// hoisted into locals: the penultimate class is a plain loop applying the
// same subtree checks as walk, the innermost a consecutive index run
// delegated to leafRun. Check order, operands and float expressions are
// identical to walk's, so the offer stream is unchanged.
//
//het:hotpath
//het:allocfree
func (w *walker) tailRun(lo, hi int64) {
	t := w.t
	cons := w.cons
	d := w.grid.Classes() - 2
	stride := t.strides[d]
	np := t.np[d]
	pwRow := t.pw[d]
	smRow := t.winmin[d]
	ctRow := t.contrib[d]
	procRow := t.procs[d]
	var okRow []bool
	if cons != nil && cons.pairOK != nil {
		okRow = cons.pairOK[d]
	}
	base := w.ibase[d]
	pp := w.prefP[d]
	pm0 := w.prefM[d]
	b0 := w.bnd[d]
	nr0 := w.nrows[d]
	sufMinP := t.sufMinP[d+1]
	sufMaxP := t.sufMaxP[d+1]
	sufLB := t.sufLB[d+1]
	// Node-entry aggregate bound: one colmin compare covers all the class's
	// scorable pairs; when it fires, only the zero pairs' subtrees remain to
	// walk.
	eff := b0
	if v := t.colmin[d][pp+sufMinP]; v > eff {
		eff = v
	}
	if sufLB > eff {
		eff = sufLB
	}
	if eff > w.shared.Load() {
		fnz := t.firstNZ[d]
		w.skipSpan(base+int64(fnz)*stride, base+int64(np)*stride, lo, hi)
		np = fnz
	}
	for j := 0; j < np; j++ {
		s := base + int64(j)*stride
		e := s + stride
		if e <= lo || s >= hi {
			continue
		}
		pw := pwRow[j]
		pm := pm0
		if pr := procRow[j]; pr > pm {
			pm = pr
		}
		if cons != nil {
			if okRow != nil && !okRow[j] {
				w.skipSpan(s, e, lo, hi)
				continue
			}
			if cons.maxP > 0 && pp+pw+sufMinP > cons.maxP {
				w.skipSpan(s, e, lo, hi)
				continue
			}
			if cons.memCap > 0 && pm > 0 {
				pmax := pp + pw + sufMaxP
				if cons.mat/float64(pmax)*float64(pm) > cons.memCap {
					w.skipSpan(s, e, lo, hi)
					continue
				}
			}
		}
		b := b0
		if sm := smRow[j]; sm != nil {
			// Same dynamic bound as walk: the row's windowed minimum at the
			// subtree's minimum reachable total P.
			if v := sm[pp+pw+sufMinP]; v > b {
				b = v
			}
		}
		eff := b
		if sufLB > eff {
			eff = sufLB
		}
		if eff > w.shared.Load() {
			w.skipSpan(s, e, lo, hi)
			continue
		}
		nr := nr0
		if row := ctRow[j]; row != nil {
			w.rows[nr] = row
			nr++
		}
		w.leafRun(s, lo, hi, pp+pw, pm, b, nr)
	}
}

// leafRun scores the innermost class of the subtree starting at base: its
// stride is 1, so the subtree is one consecutive index run and the whole
// pair list is a tight loop of contribution-row lookups against the prefix
// accumulators (prefix-P pp, prefix max-M pm, running bound b0, nr pushed
// rows) — no per-leaf re-summation, no closure calls, no allocation.
//
//het:hotpath
//het:allocfree
func (w *walker) leafRun(base, lo, hi int64, pp, pm int, b0 float64, nr int) {
	d := w.grid.Classes() - 1
	t := w.t
	j0, j1 := 0, t.np[d]
	if base < lo {
		j0 = int(lo - base)
	}
	if base+int64(j1) > hi {
		j1 = int(hi - base)
	}
	cons := w.cons
	pwRow := t.pw[d]
	ctRow := t.contrib[d]
	procRow := t.procs[d]
	var okRow []bool
	if cons != nil && cons.pairOK != nil {
		okRow = cons.pairOK[d]
	}
	rows := w.rows
	if j0 < j1 {
		// Node-entry aggregate bound: at a leaf the reachable total P is
		// exact, so colmin is the minimum over the class's scorable pairs of
		// their exact contribution at their own P — one compare prunes the
		// whole scorable run (NaN entries count +Inf here: those candidates
		// never offer either way, only the Scored/Pruned split shifts).
		eff := b0
		if v := t.colmin[d][pp]; v > eff {
			eff = v
		}
		if eff > w.shared.Load() {
			fnz := t.firstNZ[d]
			if fnz < j0 {
				fnz = j0
			}
			if fnz < j1 {
				w.pruned += int64(j1 - fnz)
				j1 = fnz
			}
		}
	}
pairLoop:
	for j := j0; j < j1; j++ {
		idx := base + int64(j)
		if idx == w.emptyIdx {
			continue
		}
		if okRow != nil && !okRow[j] {
			w.pruned++
			continue
		}
		p := pp + pwRow[j]
		if cons != nil {
			if cons.maxP > 0 && p > cons.maxP {
				w.pruned++
				continue
			}
			if cons.memCap > 0 {
				mm := pm
				if pr := procRow[j]; pr > mm {
					mm = pr
				}
				// The cap's defining expression on the candidate's own
				// operands, so the decision is bit-identical to a plain filter.
				if mm > 0 && cons.mat/float64(p)*float64(mm) > cons.memCap {
					w.pruned++
					continue
				}
			}
		}
		// At a leaf P is exact, so the pair's own contribution row at p is
		// the sharpest valid floor (NaN compares false and falls back to the
		// prefix bound; the candidate is then scored and skipped by the NaN
		// check below).
		b := b0
		if row := ctRow[j]; row != nil {
			if v := row[p]; v > b {
				b = v
			}
		}
		if b > w.shared.Load() {
			w.pruned++
			continue
		}
		w.scored++
		tau := math.Inf(-1)
		for r := 0; r < nr; r++ {
			v := rows[r][p]
			if math.IsNaN(v) {
				continue pairLoop // unscorable candidate, skipped like Optimize does
			}
			if v > tau {
				tau = v
			}
		}
		if row := ctRow[j]; row != nil {
			v := row[p]
			if math.IsNaN(v) {
				continue
			}
			if v > tau {
				tau = v
			}
		}
		if w.topk.Offer(idx, tau) {
			w.shared.Update(w.topk.Threshold())
		}
	}
}

// skipSpan accounts a wholesale-skipped subtree, clamped to the searched
// range, with the empty configuration excluded: it is a grid point but
// never a candidate.
func (w *walker) skipSpan(s, e, lo, hi int64) {
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	w.pruned += e - s
	if s <= w.emptyIdx && w.emptyIdx < e {
		w.pruned--
	}
}
