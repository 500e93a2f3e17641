package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
)

// Options configures a Planner. The zero value of every field selects a
// sensible default.
type Options struct {
	// CacheSize bounds the evaluator cache in entries (<= 0 selects 64).
	CacheSize int
	// MaxInFlight bounds concurrently executing grid passes (<= 0 selects
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot (< 0 selects
	// 4x MaxInFlight; 0 disables queueing — a query that cannot start
	// immediately is rejected).
	MaxQueue int
	// DefaultTimeout is applied to queries whose context carries no
	// deadline (<= 0 leaves them unbounded).
	DefaultTimeout time.Duration
	// Workers is the per-search worker count, as core.SearchOptions.Workers
	// (<= 0 selects GOMAXPROCS, 1 forces sequential). The answers are
	// identical at any setting.
	Workers int
	// Now is the clock behind the served-latency counters (nil selects
	// time.Now). Virtual-time tests inject a deterministic clock so the
	// latency accounting itself can be asserted exactly.
	Now func() time.Time
	// Grind is a load-testing knob: a minimum service time imposed on every
	// grid pass while it holds an execution slot (0 = off, the default).
	// Saturation sweeps use it to pull the admission-control knee inside
	// the offered-load range a single-host driver can generate; production
	// deployments leave it zero.
	Grind time.Duration
	// RefitAuth is the shared secret the /v1/refit endpoint requires in its
	// X-Refit-Auth header. Empty (the default) disables the HTTP endpoint
	// entirely — refit mutates the served model, so unlike the read-only
	// endpoints it is off until explicitly armed. Planner.Refit, the in-
	// process API, is not affected.
	RefitAuth string
}

// Planner is the long-lived query engine: a versioned model store, an
// evaluator cache, a batcher and admission control around the compiled
// streaming search. One Planner serves any number of concurrent clients.
type Planner struct {
	space   cluster.Space
	grid    *cluster.Grid
	workers int
	timeout time.Duration
	grind   time.Duration

	store   *Store
	cache   *evalCache
	adm     *admission
	batcher *batcher
	now     func() time.Time

	// reads is the static grid read set driving surgical cache invalidation
	// on refit (see refit.go); refitAuth arms the /v1/refit HTTP endpoint.
	reads     readSet
	refitAuth string
	// swapMu serializes model publication with the cache maintenance that
	// follows it (Reload's invalidation, Refit's re-keying), so two
	// concurrent swaps cannot interleave their cache updates. It also
	// guards the staged two-phase swap state below (see stage.go).
	swapMu   sync.Mutex
	pending  *stagedOp
	stageSeq int64

	queries      atomic.Int64
	completed    atomic.Int64
	servedNs     atomic.Int64
	scored       atomic.Int64
	pruned       atomic.Int64
	reloads      atomic.Int64
	refits       atomic.Int64
	cacheRekeyed atomic.Int64
}

// New validates the model, compiles the planner's configuration space, and
// publishes the model as version 1.
func New(ms *core.ModelSet, space cluster.Space, opts Options) (*Planner, error) {
	store, err := NewStore(ms)
	if err != nil {
		return nil, err
	}
	grid, err := space.Compile()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if grid.Classes() != ms.Classes {
		return nil, fmt.Errorf("serve: space has %d classes, model has %d", grid.Classes(), ms.Classes)
	}
	cacheSize := opts.CacheSize
	if cacheSize <= 0 {
		cacheSize = 64
	}
	maxInFlight := opts.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	maxQueue := opts.MaxQueue
	if maxQueue < 0 {
		maxQueue = 4 * maxInFlight
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Planner{
		space:     space,
		grid:      grid,
		workers:   opts.Workers,
		timeout:   opts.DefaultTimeout,
		grind:     opts.Grind,
		store:     store,
		cache:     newEvalCache(cacheSize),
		adm:       newAdmission(maxInFlight, maxQueue),
		batcher:   newBatcher(),
		now:       now,
		reads:     newReadSet(grid),
		refitAuth: opts.RefitAuth,
	}, nil
}

// Space returns the configuration space the planner searches.
func (p *Planner) Space() cluster.Space { return p.space }

// Version returns the version of the currently served model.
func (p *Planner) Version() int64 { return p.store.Version() }

// Current returns the currently served (version, model) snapshot.
func (p *Planner) Current() (int64, *core.ModelSet) { return p.store.Current() }

// Reload validates and publishes a replacement model without downtime:
// queries already running finish against their snapshot, new queries see the
// new version, and evaluators compiled from older versions are evicted
// eagerly (see evalCache.InvalidateExcept). Returns the new version.
func (p *Planner) Reload(ms *core.ModelSet) (int64, error) {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	version, err := p.store.Swap(ms)
	if err != nil {
		return 0, err
	}
	p.reloads.Add(1)
	p.cache.InvalidateExcept(version)
	return version, nil
}

// Constraints restrict a query's candidate set. All constraints are pure
// functions of the candidate configuration, so a constrained query stays a
// deterministic filter over the same grid — never a different grid.
type Constraints struct {
	// Classes lists the PE classes a candidate may use (nil or empty allows
	// all). A configuration using any PE of another class is excluded.
	Classes []int `json:"classes,omitempty"`
	// MaxTotalProcs caps the total process count P = Σ Pi·Mi (0 = no cap).
	MaxTotalProcs int `json:"maxTotalProcs,omitempty"`
	// MaxBytesPerPE caps the predetermined per-PE resident set of the
	// paper's §3.4 memory model, Mi·8·N²/P bytes (0 = no cap).
	MaxBytesPerPE float64 `json:"maxBytesPerPE,omitempty"`
}

// canonical validates the constraints against the class count and returns a
// normalized copy: Classes sorted and deduplicated, so equal constraint sets
// share one batch signature.
func (c Constraints) canonical(classes int) (Constraints, error) {
	if c.MaxTotalProcs < 0 {
		return c, fmt.Errorf("serve: negative maxTotalProcs %d", c.MaxTotalProcs)
	}
	if c.MaxBytesPerPE < 0 {
		return c, fmt.Errorf("serve: negative maxBytesPerPE %g", c.MaxBytesPerPE)
	}
	if len(c.Classes) == 0 {
		c.Classes = nil
		return c, nil
	}
	sorted := append([]int(nil), c.Classes...)
	sort.Ints(sorted)
	uniq := sorted[:0]
	for i, v := range sorted {
		if v < 0 || v >= classes {
			return c, fmt.Errorf("serve: class %d outside %d classes", v, classes)
		}
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	c.Classes = uniq
	return c, nil
}

// signature renders canonical constraints as the batch-key string.
func (c Constraints) signature() string {
	if len(c.Classes) == 0 && c.MaxTotalProcs == 0 && c.MaxBytesPerPE == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("c=")
	for i, v := range c.Classes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteString(";p=")
	b.WriteString(strconv.Itoa(c.MaxTotalProcs))
	b.WriteString(";b=")
	b.WriteString(strconv.FormatFloat(c.MaxBytesPerPE, 'g', -1, 64))
	return b.String()
}

// Core converts the constraints into the search kernel's structured form
// (nil when unconstrained), which the kernel prunes natively — class subsets
// zero whole subtrees, the P cap cuts via prefix/suffix bounds, the memory
// cap compiles to per-pair exclusions — instead of decoding and rejecting
// every candidate through a closure.
func (c Constraints) Core() *core.Constraints {
	if len(c.Classes) == 0 && c.MaxTotalProcs == 0 && c.MaxBytesPerPE == 0 {
		return nil
	}
	return &core.Constraints{
		Classes:       c.Classes,
		MaxTotalProcs: c.MaxTotalProcs,
		MaxBytesPerPE: c.MaxBytesPerPE,
	}
}

// Query is one planning request.
type Query struct {
	// N is the problem size (required, > 0).
	N int
	// TopK selects how many ranked candidates to return (<= 0 means 1).
	TopK int
	// Constraints restrict the candidate set; the zero value allows every
	// candidate of the planner's space.
	Constraints Constraints
	// Shard, when non-nil, restricts the search to the grid indices in
	// [Lo, Hi) — the fleet router's scatter unit. Candidates keep their
	// global grid indices and the (τ, index) ranking, so merging disjoint
	// shard answers with parallel.MergeTopK reproduces the unsharded
	// answer bit for bit. A shard holding no scorable candidate returns an
	// empty Best, not an error.
	Shard *core.IndexRange
}

// Result is the answer to a Query. Best, Size, Version and N are
// deterministic: bit-identical to a direct ModelSet.OptimizeSpace call with
// the same model, size and constraints. Scored, Pruned, CacheHit and Batched
// are observability fields whose values depend on scheduling and cache
// state.
type Result struct {
	// Version is the model version that answered the query.
	Version int64
	// N echoes the problem size.
	N int
	// Best holds the TopK best candidates, best first (core's (τ, index)
	// total order).
	Best []core.Estimate
	// BestIndex holds the global grid index of each Best entry — what a
	// fleet router merges shard answers on.
	BestIndex []int64
	// Size, Scored and Pruned mirror core.SearchResult.
	Size, Scored, Pruned int64
	// CacheHit reports whether the evaluator came from the cache (or an
	// in-flight compile was joined) rather than compiled for this pass.
	CacheHit bool
	// Batched is the number of queries this grid pass answered (>= 1).
	Batched int
}

// Query answers one planning request. Identical concurrent queries coalesce
// into one grid pass; execution is bounded by the planner's admission
// limits. The context deadline (or the planner's default timeout) bounds the
// wait for admission — an admitted search runs to completion, which is
// microseconds to milliseconds on realistic grids.
func (p *Planner) Query(ctx context.Context, q Query) (*Result, error) {
	if q.N <= 0 {
		return nil, fmt.Errorf("serve: problem size %d, want > 0", q.N)
	}
	k := q.TopK
	if k <= 0 {
		k = 1
	}
	version, models := p.store.Current()
	cons, err := q.Constraints.canonical(models.Classes)
	if err != nil {
		return nil, err
	}
	key := batchKey{version: version, n: q.N, sig: cons.signature()}
	if q.Shard != nil {
		if q.Shard.Lo < 0 || q.Shard.Hi < q.Shard.Lo || q.Shard.Hi > p.grid.Size() {
			return nil, fmt.Errorf("serve: shard [%d, %d) outside grid of %d candidates",
				q.Shard.Lo, q.Shard.Hi, p.grid.Size())
		}
		key.shard, key.sharded = *q.Shard, true
	}
	if p.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.timeout)
			defer cancel()
		}
	}
	p.queries.Add(1)
	start := p.now()

	b, leader := p.batcher.join(key, k)
	if !leader {
		select {
		case <-b.done:
			return p.finish(b, k, start)
		case <-ctx.Done():
			return nil, fmt.Errorf("serve: waiting for batch: %w", ctx.Err())
		}
	}

	if err := p.adm.acquire(ctx); err != nil {
		p.batcher.close(b)
		b.err = err
		close(b.done)
		return nil, err
	}
	p.batcher.close(b) // freezes maxK and members: later queries batch anew
	if p.grind > 0 {
		// Load-testing knob: burn the execution slot for the configured
		// minimum service time so saturation sweeps can reach the
		// admission-control knee (see Options.Grind).
		time.Sleep(p.grind)
	}
	b.res, b.err = p.execute(version, models, q.N, cons, q.Shard, b.maxK, b.members)
	close(b.done)
	p.adm.release()
	return p.finish(b, k, start)
}

// finish projects the batch result for one member and, on success, credits
// the completed/servedNs counters the saturation knee detector reads over
// /v1/stats.
func (p *Planner) finish(b *batch, k int, start time.Time) (*Result, error) {
	res, err := sliceResult(b, k)
	if err == nil {
		p.completed.Add(1)
		p.servedNs.Add(int64(p.now().Sub(start)))
	}
	return res, err
}

// execute runs one grid pass: evaluator from the cache (singleflight
// compile), then the pruned streaming search with the constraints handed to
// the kernel structurally, so constrained passes prune instead of filter.
func (p *Planner) execute(version int64, models *core.ModelSet, n int, cons Constraints, shard *core.IndexRange, k, members int) (*Result, error) {
	ev, hit := p.cache.Get(evalKey{version: version, n: n}, func() *core.Evaluator {
		return models.Compile(float64(n))
	})
	p.batcher.passes.Add(1)
	res, err := ev.Search(p.grid, core.SearchOptions{
		Workers:     p.workers,
		TopK:        k,
		Constraints: cons.Core(),
		Range:       shard,
	})
	if err != nil {
		return nil, err
	}
	p.scored.Add(res.Scored)
	p.pruned.Add(res.Pruned)
	return &Result{
		Version:   version,
		N:         n,
		Best:      res.Best,
		BestIndex: res.BestIndex,
		Size:      res.Size,
		Scored:    res.Scored,
		Pruned:    res.Pruned,
		CacheHit:  hit,
		Batched:   members,
	}, nil
}

// pruneRatio is the pruned share of visited-plus-pruned candidates, 0 when
// nothing has been searched yet.
func pruneRatio(scored, pruned int64) float64 {
	if total := scored + pruned; total > 0 {
		return float64(pruned) / float64(total)
	}
	return 0
}

// sliceResult projects a batch result onto one member's requested K: the
// (τ, index) ranking is a total order, so the member's top-k is exactly the
// first k entries of the batch's top-maxK.
func sliceResult(b *batch, k int) (*Result, error) {
	if b.err != nil {
		return nil, b.err
	}
	r := *b.res
	if k < len(r.Best) {
		r.Best = r.Best[:k:k]
		r.BestIndex = r.BestIndex[:k:k]
	}
	return &r, nil
}

// Stats is a point-in-time snapshot of the planner's counters.
type Stats struct {
	Version int64 `json:"version"`
	Queries int64 `json:"queries"`
	// Completed counts queries answered successfully; ServedNs is the total
	// clock time they spent in Query (admission wait included). Together
	// with the rejection counters they let an external load driver locate
	// the admission-control knee (see internal/workload).
	Completed int64 `json:"completed"`
	ServedNs  int64 `json:"servedNs"`
	// Scored and Pruned total the candidates the grid passes visited versus
	// skipped wholesale (bound or structural-constraint pruning); PruneRatio
	// is Pruned over their sum. Together they expose how much of the search
	// space the kernel's bounds are eliding under the live query mix.
	Scored           int64   `json:"scored"`
	Pruned           int64   `json:"pruned"`
	PruneRatio       float64 `json:"pruneRatio"`
	GridPasses       int64   `json:"gridPasses"`
	Coalesced        int64   `json:"coalesced"`
	CacheHits        int64   `json:"cacheHits"`
	CacheMisses      int64   `json:"cacheMisses"`
	Compiles         int64   `json:"compiles"`
	CacheEntries     int     `json:"cacheEntries"`
	Evictions        int64   `json:"evictions"`
	InFlight         int     `json:"inFlight"`
	Queued           int64   `json:"queued"`
	RejectedQueue    int64   `json:"rejectedQueue"`
	RejectedDeadline int64   `json:"rejectedDeadline"`
	Reloads          int64   `json:"reloads"`
	Refits           int64   `json:"refits"`
	// CacheRekeyed counts evaluators carried across refits without
	// recompilation — the surgical-invalidation win, visible as cache hits
	// that a reload would have turned into compiles.
	CacheRekeyed int64 `json:"cacheRekeyed"`
}

// Stats snapshots the planner counters. Counters are read individually (not
// under one lock), so a snapshot taken under load is approximate.
func (p *Planner) Stats() Stats {
	scored, pruned := p.scored.Load(), p.pruned.Load()
	return Stats{
		Version:          p.store.Version(),
		Queries:          p.queries.Load(),
		Completed:        p.completed.Load(),
		ServedNs:         p.servedNs.Load(),
		Scored:           scored,
		Pruned:           pruned,
		PruneRatio:       pruneRatio(scored, pruned),
		GridPasses:       p.batcher.passes.Load(),
		Coalesced:        p.batcher.coalesced.Load(),
		CacheHits:        p.cache.hits.Load(),
		CacheMisses:      p.cache.misses.Load(),
		Compiles:         p.cache.compiles.Load(),
		CacheEntries:     p.cache.Len(),
		Evictions:        p.cache.evictions.Load(),
		InFlight:         p.adm.inFlight(),
		Queued:           p.adm.queued.Load(),
		RejectedQueue:    p.adm.rejectedQueue.Load(),
		RejectedDeadline: p.adm.rejectedDeadline.Load(),
		Reloads:          p.reloads.Load(),
		Refits:           p.refits.Load(),
		CacheRekeyed:     p.cacheRekeyed.Load(),
	}
}
