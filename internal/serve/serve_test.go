package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/parallel"
)

// testModel fits a deterministic two-class model covering testSpace: each
// class is measured at M = 1..3 on 1, 2 and 4 PEs over five sizes, so every
// grid candidate is scorable. Class c runs at speed factor 1/(1 + c/4).
func testModel(tb testing.TB, classes int) *core.ModelSet {
	tb.Helper()
	var samples []core.Sample
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
					samples = append(samples, core.Sample{
						Config: cluster.Configuration{Use: use},
						N:      n, P: p, Class: class, M: m,
						Ta: ta, Tc: tc, Wall: ta + tc,
					})
				}
			}
		}
	}
	ms, err := core.Build(classes, samples)
	if err != nil {
		tb.Fatal(err)
	}
	return ms
}

// testSpace is the grid the test planner searches: per class PE counts
// {0, 1, 2, 4} x process counts {1, 2, 3}, 10 canonical pairs per class.
func testSpace(classes int) cluster.Space {
	s := cluster.Space{PEChoices: make([][]int, classes), ProcChoices: make([][]int, classes)}
	for ci := range s.PEChoices {
		s.PEChoices[ci] = []int{0, 1, 2, 4}
		s.ProcChoices[ci] = []int{1, 2, 3}
	}
	return s
}

func newTestPlanner(tb testing.TB, opts Options) (*Planner, *core.ModelSet) {
	tb.Helper()
	ms := testModel(tb, 2)
	p, err := New(ms, testSpace(2), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return p, ms
}

// admits spells the constraints' semantics out as a plain predicate: only
// allowed classes in use, total P within the cap, and the per-PE resident set
// 8·N²/P·max Mi within the memory cap.
func (c Constraints) admits(cfg cluster.Configuration, n float64) bool {
	p, maxM := 0, 0
	for ci, u := range cfg.Use {
		if u.PEs <= 0 || u.Procs <= 0 {
			continue
		}
		if len(c.Classes) > 0 && !slices.Contains(c.Classes, ci) {
			return false
		}
		p += u.PEs * u.Procs
		maxM = max(maxM, u.Procs)
	}
	if c.MaxTotalProcs > 0 && p > c.MaxTotalProcs {
		return false
	}
	return c.MaxBytesPerPE <= 0 || p == 0 || 8*n*n/float64(p)*float64(maxM) <= c.MaxBytesPerPE
}

// bruteForce is the oracle every parity test in this package compares the
// planner against, written with nothing the search kernel uses: visit every
// point of the space's grid, drop the all-unused configuration and whatever
// the constraints do not admit, score the rest one by one through
// Evaluator.Tau, and keep the k best by (τ, grid index). size is the grid's
// candidate count, what Result.Size must report.
func bruteForce(tb testing.TB, ms *core.ModelSet, space cluster.Space, n, k int, cons Constraints) (best []core.Estimate, size int64) {
	tb.Helper()
	grid, err := space.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	if k <= 0 {
		k = 1
	}
	ev := ms.Compile(float64(n))
	tk := parallel.NewTopK(k)
	grid.Visit(func(idx int64, cfg cluster.Configuration) bool {
		if cfg.TotalProcs() == 0 {
			return true
		}
		size++
		if cons.admits(cfg, float64(n)) {
			if tau, ok := ev.Tau(cfg); ok {
				tk.Offer(idx, tau)
			}
		}
		return true
	})
	for _, c := range tk.Sorted() {
		use := make([]cluster.ClassUse, grid.Classes())
		grid.At(c.Index, use)
		best = append(best, core.Estimate{Config: cluster.Configuration{Use: use}, Tau: c.Score})
	}
	return best, size
}

func sameBest(tb testing.TB, got, want []core.Estimate) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("got %d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Tau != want[i].Tau { // bit-identical, no tolerance
			tb.Fatalf("candidate %d: tau %v, want %v", i, got[i].Tau, want[i].Tau)
		}
		if got[i].Config.String() != want[i].Config.String() {
			tb.Fatalf("candidate %d: config %s, want %s", i, got[i].Config, want[i].Config)
		}
	}
}

// TestQueryMatchesOptimizeSpace is the serving determinism contract, one
// table over size × constraints × top-K × worker count: the planner's answer
// is bit-identical to the brute-force ranking of the candidates the
// constraints accept — what a direct ModelSet.OptimizeSpace call with the
// same parameters returns (core's equivalence tests pin that half).
func TestQueryMatchesOptimizeSpace(t *testing.T) {
	queries := []Query{
		{N: 1600},
		{N: 3200, TopK: 5},
		{N: 2400, TopK: 3, Constraints: Constraints{Classes: []int{1}}},
		{N: 2400, TopK: 8, Constraints: Constraints{MaxTotalProcs: 4}},
		{N: 3200, TopK: 4, Constraints: Constraints{MaxBytesPerPE: 40e6}},
		{N: 1600, TopK: 2, Constraints: Constraints{Classes: []int{0}, MaxTotalProcs: 6, MaxBytesPerPE: 80e6}},
	}
	for _, workers := range []int{1, 0} {
		p, ms := newTestPlanner(t, Options{Workers: workers})
		for _, q := range queries {
			t.Run(fmt.Sprintf("w%d/n%d/k%d/%s", workers, q.N, q.TopK, q.Constraints.signature()), func(t *testing.T) {
				got, err := p.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want, size := bruteForce(t, ms, p.Space(), q.N, q.TopK, q.Constraints)
				sameBest(t, got.Best, want)
				if got.Size != size || got.Scored+got.Pruned != size {
					t.Errorf("size %d (%d scored + %d pruned), want %d", got.Size, got.Scored, got.Pruned, size)
				}
			})
		}
	}
}

// TestQueryConstraintsSemantics spot-checks that constraints mean what they
// say on the returned winners (parity with the direct path is covered
// above; this guards the filter itself).
func TestQueryConstraintsSemantics(t *testing.T) {
	p, _ := newTestPlanner(t, Options{})
	res, err := p.Query(context.Background(), Query{
		N: 2400, TopK: 10, Constraints: Constraints{Classes: []int{0}, MaxTotalProcs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Fatal("no candidates")
	}
	for _, e := range res.Best {
		if e.Config.Use[1].PEs != 0 {
			t.Errorf("%s uses class 1, constrained to class 0", e.Config)
		}
		if tp := e.Config.TotalProcs(); tp > 4 {
			t.Errorf("%s has P=%d > 4", e.Config, tp)
		}
	}
	// An unsatisfiable constraint set is an error, not a silent empty list.
	if _, err := p.Query(context.Background(), Query{
		N: 2400, Constraints: Constraints{MaxTotalProcs: 0, MaxBytesPerPE: 1},
	}); !errors.Is(err, core.ErrNoModel) {
		t.Errorf("unsatisfiable query returned %v, want ErrNoModel", err)
	}
	// Constraint validation.
	if _, err := p.Query(context.Background(), Query{N: 2400, Constraints: Constraints{Classes: []int{7}}}); err == nil {
		t.Error("out-of-range class accepted")
	}
	if _, err := p.Query(context.Background(), Query{N: 0}); err == nil {
		t.Error("nonpositive N accepted")
	}
}

// TestQueryConcurrentParity answers the "under concurrent load" half of the
// determinism criterion: many goroutines issuing a mix of queries all see
// exactly the answers of the sequential direct path.
func TestQueryConcurrentParity(t *testing.T) {
	p, ms := newTestPlanner(t, Options{MaxInFlight: 2, MaxQueue: 1024})
	queries := []Query{
		{N: 1600, TopK: 3},
		{N: 2400, TopK: 5, Constraints: Constraints{MaxTotalProcs: 8}},
		{N: 3200, TopK: 1},
		{N: 3200, TopK: 4, Constraints: Constraints{Classes: []int{1}}},
	}
	want := make([][]core.Estimate, len(queries))
	for i, q := range queries {
		want[i], _ = bruteForce(t, ms, p.Space(), q.N, q.TopK, q.Constraints)
	}
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				res, err := p.Query(context.Background(), queries[i])
				if err != nil {
					errc <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				w := want[i]
				if len(res.Best) != len(w) {
					errc <- fmt.Errorf("query %d: %d candidates, want %d", i, len(res.Best), len(w))
					return
				}
				for j := range w {
					if res.Best[j].Tau != w[j].Tau || res.Best[j].Config.String() != w[j].Config.String() {
						errc <- fmt.Errorf("query %d candidate %d: %s tau=%v, want %s tau=%v",
							i, j, res.Best[j].Config, res.Best[j].Tau, w[j].Config, w[j].Tau)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s := p.Stats(); s.Queries != goroutines*rounds {
		t.Errorf("stats counted %d queries, want %d", s.Queries, goroutines*rounds)
	}
}

// TestPlannerSingleflight: concurrent first queries for the same
// (version, N) — with distinct constraint signatures so batching cannot
// collapse them — still compile exactly one evaluator.
func TestPlannerSingleflight(t *testing.T) {
	p, _ := newTestPlanner(t, Options{MaxInFlight: 8, MaxQueue: 64})
	const k = 8
	var wg sync.WaitGroup
	errc := make(chan error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Different MaxTotalProcs per goroutine: distinct batch keys,
			// identical evaluator key.
			_, err := p.Query(context.Background(), Query{
				N: 2400, Constraints: Constraints{MaxTotalProcs: 4 + i},
			})
			errc <- err
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Compiles != 1 {
		t.Errorf("%d compiles for one (version, N), want 1", s.Compiles)
	}
	if s.GridPasses != k {
		t.Errorf("%d grid passes, want %d (distinct constraints must not batch)", s.GridPasses, k)
	}
}

// TestReloadSwapsWithoutDowntime: a reload bumps the version, evicts stale
// evaluators, and changes answers exactly when the model changed.
func TestReloadSwapsWithoutDowntime(t *testing.T) {
	p, ms := newTestPlanner(t, Options{})
	r1, err := p.Query(context.Background(), Query{N: 2400, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version != 1 {
		t.Fatalf("version %d, want 1", r1.Version)
	}

	// Reload an equivalent refit: same samples, new version.
	v, err := p.Reload(testModel(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || p.Version() != 2 {
		t.Fatalf("reload returned version %d (planner %d), want 2", v, p.Version())
	}
	if got := p.Stats().CacheEntries; got != 0 {
		t.Errorf("%d cache entries survived the reload, want 0", got)
	}
	r2, err := p.Query(context.Background(), Query{N: 2400, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Version != 2 {
		t.Fatalf("post-reload version %d, want 2", r2.Version)
	}
	sameBest(t, r2.Best, r1.Best) // same fit, same answers
	if s := p.Stats(); s.Compiles != 2 {
		t.Errorf("%d compiles, want 2 (reload must invalidate the cached evaluator)", s.Compiles)
	}

	// A rejected reload leaves the store serving the old version.
	if _, err := p.Reload(&core.ModelSet{Classes: 2}); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := p.Reload(testModel(t, 3)); err == nil {
		t.Fatal("model with mismatched class count accepted")
	}
	if p.Version() != 2 {
		t.Errorf("failed reload moved the version to %d", p.Version())
	}
	_ = ms
}

// TestBatchCoalesce: identical queries queued behind a saturated planner
// share one grid pass, and members with different K each get the exact
// prefix of the shared ranking.
func TestBatchCoalesce(t *testing.T) {
	p, ms := newTestPlanner(t, Options{MaxInFlight: 1, MaxQueue: 8})
	// Saturate the single execution slot so the batch stays open.
	if err := p.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const members = 6
	type answer struct {
		res *Result
		err error
		k   int
	}
	results := make(chan answer, members)
	for i := 0; i < members; i++ {
		go func(k int) {
			res, err := p.Query(context.Background(), Query{N: 1600, TopK: k})
			results <- answer{res, err, k}
		}(1 + i%3) // K in {1, 2, 3}
	}
	// Wait until every member joined the one open batch, then unblock.
	deadline := time.After(5 * time.Second)
	for {
		p.batcher.mu.Lock()
		joined := 0
		for _, b := range p.batcher.open {
			joined = b.members
		}
		p.batcher.mu.Unlock()
		if joined == members {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d of %d queries joined the batch", joined, members)
		case <-time.After(time.Millisecond):
		}
	}
	p.adm.release()

	want, err := ms.OptimizeSpace(p.Space(), 1600, core.SearchOptions{Workers: 1, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		a := <-results
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.res.Batched != members {
			t.Errorf("batched=%d, want %d", a.res.Batched, members)
		}
		sameBest(t, a.res.Best, want.Best[:a.k])
	}
	s := p.Stats()
	if s.GridPasses != 1 {
		t.Errorf("%d grid passes for %d identical queries, want 1", s.GridPasses, members)
	}
	if s.Coalesced != members-1 {
		t.Errorf("coalesced=%d, want %d", s.Coalesced, members-1)
	}
}

// TestAdmissionOverload: a full queue rejects immediately with
// ErrOverloaded; a queued query whose deadline passes is rejected with the
// context error. Distinct sizes keep the queries out of each other's batch.
func TestAdmissionOverload(t *testing.T) {
	p, _ := newTestPlanner(t, Options{MaxInFlight: 1, MaxQueue: 1})
	if err := p.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Occupy the single queue slot with a query that will time out.
	queued := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		_, err := p.Query(ctx, Query{N: 1600})
		queued <- err
	}()
	// Wait for it to be counted as queued.
	for i := 0; p.adm.queued.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next distinct query is rejected immediately. Its own
	// deadline only matters if scheduling noise drains the queue first — it
	// keeps the test from hanging rather than from failing.
	ctxB, cancelB := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelB()
	if _, err := p.Query(ctxB, Query{N: 2400}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overloaded planner returned %v, want ErrOverloaded", err)
	}

	// The queued query's deadline expires while the slot stays held.
	if err := <-queued; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued query returned %v, want DeadlineExceeded", err)
	}
	p.adm.release()

	s := p.Stats()
	if s.RejectedQueue != 1 || s.RejectedDeadline != 1 {
		t.Errorf("rejected queue=%d deadline=%d, want 1 and 1", s.RejectedQueue, s.RejectedDeadline)
	}
	// The planner still serves once the slot frees up.
	if _, err := p.Query(context.Background(), Query{N: 1600}); err != nil {
		t.Errorf("planner did not recover after overload: %v", err)
	}
}

// TestDefaultTimeout: queries without a deadline inherit the planner's.
func TestDefaultTimeout(t *testing.T) {
	p, _ := newTestPlanner(t, Options{MaxInFlight: 1, MaxQueue: 4, DefaultTimeout: 30 * time.Millisecond})
	if err := p.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.adm.release()
	start := time.Now()
	_, err := p.Query(context.Background(), Query{N: 1600})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("default timeout took %v", elapsed)
	}
}

// TestInjectedClockCounters: with a stepping fake clock, the completed and
// servedNs counters are exact — the accounting the workload knee detector
// reads is itself deterministic.
func TestInjectedClockCounters(t *testing.T) {
	var fake struct {
		mu sync.Mutex
		ns int64
	}
	now := func() time.Time {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		fake.ns += 5e6 // every clock read advances 5ms
		return time.Unix(0, fake.ns)
	}
	ms := testModel(t, 2)
	p, err := New(ms, testSpace(2), Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Query(context.Background(), Query{N: 1600}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Completed != 3 {
		t.Errorf("Completed = %d, want 3", st.Completed)
	}
	// Each query reads the clock exactly twice (start, finish), so each
	// contributes exactly one 5ms step of served time.
	if st.ServedNs != 3*5e6 {
		t.Errorf("ServedNs = %d, want %d", st.ServedNs, int64(3*5e6))
	}

	// A failed query (unsatisfiable constraints) must not count as served.
	if _, err := p.Query(context.Background(), Query{N: 1600, Constraints: Constraints{MaxTotalProcs: -1}}); err == nil {
		t.Fatal("expected constraint failure")
	}
	if st = p.Stats(); st.Completed != 3 {
		t.Errorf("failed query bumped Completed to %d", st.Completed)
	}
}

// TestStatsPruneCounters: the planner's scored/pruned counters aggregate the
// kernel accounting of every grid pass — their sum is the candidate total
// each pass covered — and a structurally constrained query shows up as
// pruned work, not scored work.
func TestStatsPruneCounters(t *testing.T) {
	ms := testModel(t, 2)
	p, err := New(ms, testSpace(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gridSize := int64(10*10 - 1) // testSpace(2) minus the all-unused config
	r1, err := p.Query(context.Background(), Query{N: 1600})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Query(context.Background(), Query{N: 1600, Constraints: Constraints{Classes: []int{1}, MaxTotalProcs: 6}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*Result{r1, r2} {
		if r.Size != gridSize || r.Scored+r.Pruned != r.Size {
			t.Fatalf("query %d: accounting %d scored + %d pruned vs size %d (grid %d)",
				i, r.Scored, r.Pruned, r.Size, gridSize)
		}
	}
	if r2.Pruned == 0 {
		t.Fatal("structural constraints pruned nothing")
	}
	st := p.Stats()
	if st.Scored != r1.Scored+r2.Scored || st.Pruned != r1.Pruned+r2.Pruned {
		t.Fatalf("stats (%d, %d) do not aggregate the passes (%d+%d, %d+%d)",
			st.Scored, st.Pruned, r1.Scored, r2.Scored, r1.Pruned, r2.Pruned)
	}
	want := float64(st.Pruned) / float64(st.Scored+st.Pruned)
	if st.PruneRatio != want {
		t.Fatalf("PruneRatio = %v, want %v", st.PruneRatio, want)
	}
}
