package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/experiments"
	"hetmodel/internal/measure"
	"hetmodel/internal/parallel"
)

// plan is the in-process planning workload pair, one goroutine, no HTTP.
// plan_cold compiles an evaluator and runs its first search per operation —
// the one-shot hetopt/library user, who pays for the grid tables every time.
// plan_warm searches evaluators compiled and table-warmed in set-up — the
// autotuner sweeping K and shards over a few sizes. The pair reads and
// builds the same tables, so a change that speeds one at the other's cost
// shows.
type plan struct {
	cold   bool
	base   *core.ModelSet
	grids  [gridCount]*cluster.Grid
	rq     *requests
	opts   []core.SearchOptions // per distinct query
	warm   map[evalKey]*core.Evaluator
	oracle *oracle
	next   int64
}

func setupPlan(name string, seed int64) (*plan, error) {
	p := &plan{cold: name == "plan_cold"}
	var err error
	if p.base, err = buildModel(); err != nil {
		return nil, err
	}
	for id := range p.grids {
		if p.grids[id], err = gridSpace(id).Compile(); err != nil {
			return nil, err
		}
	}
	if p.rq, err = generate(name, seed); err != nil {
		return nil, err
	}
	p.oracle = newOracle(p.base, p.grids, p.rq.queries)
	p.opts = make([]core.SearchOptions, len(p.rq.queries))
	p.warm = make(map[evalKey]*core.Evaluator)
	for i, q := range p.rq.queries {
		grid := p.grids[q.Grid]
		p.opts[i] = q.searchOptions(grid.Size())
		if p.cold {
			continue
		}
		// One evaluator per (grid, size): an evaluator caches the tables of
		// one grid only.
		k := evalKey{grid: q.Grid, n: q.N}
		if p.warm[k] == nil {
			ev := p.base.Compile(float64(q.N))
			if _, err := ev.Search(grid, p.opts[i]); err != nil {
				return nil, err
			}
			p.warm[k] = ev
		}
	}
	return p, nil
}

func (p *plan) hash() uint64 { return p.rq.hash }
func (p *plan) close()       {}

func (p *plan) counters() (counters, error) { return selfCounters(), nil }

func (p *plan) run(d time.Duration, tr *tracer) (*phase, error) {
	recs := make([]opRec, 0, recsCap)
	var scratch []parallel.Candidate
	start := time.Now()
	deadline := start.Add(d)
	for {
		i := p.next
		p.next++
		qid := p.rq.seq[i%int64(len(p.rq.seq))]
		q := p.rq.queries[qid]
		grid := p.grids[q.Grid]
		var (
			ev         *core.Evaluator
			t0, tc, t1 time.Time
		)
		if p.cold {
			t0 = time.Now()
			ev = p.base.Compile(float64(q.N))
			tc = time.Now()
		} else {
			ev = p.warm[evalKey{grid: q.Grid, n: q.N}]
			t0 = time.Now()
			tc = t0
		}
		res, err := ev.Search(grid, p.opts[qid])
		t1 = time.Now()
		rec := opRec{end: t1.Sub(start), lat: t1.Sub(t0), qid: qid}
		if err != nil {
			rec.bad = true
		} else {
			rec.hash, scratch = hashResult(res, scratch)
		}
		recs = append(recs, rec)
		if tr != nil && i%int64(tr.every) == 0 {
			p.trace(tr, ev, qid, i+1, t0, tc, t1)
		}
		if !t1.Before(deadline) {
			break
		}
	}
	return &phase{elapsed: time.Since(start), ops: [][]opRec{recs}}, nil
}

// trace books one operation's budget. The calls are the benchmark's own, so
// the spans are the real ones; only the split of a cold search into table
// construction and walk needs a replay — the same search repeated on the now
// warm evaluator.
func (p *plan) trace(tr *tracer, ev *core.Evaluator, qid int32, req int64, t0, tc, t1 time.Time) {
	var self [layerCount]time.Duration
	root := tr.add("client.op", t0, t1, 0, req)
	if !p.cold {
		tr.add("core.search", t0, t1, root, req)
		self[layerSearch] = t1.Sub(t0)
		tr.budget(t1.Sub(t0), t1.Sub(t0), self)
		return
	}
	q := p.rq.queries[qid]
	a := time.Now()
	ev.Search(p.grids[q.Grid], p.opts[qid]) //nolint:errcheck // the timed call above was checked
	b := time.Now()
	tr.add("core.compile", t0, tc, root, req)
	first := tr.add("core.search_first", tc, t1, root, req)
	tr.add("core.search_repeat", a, b, first, req)
	self[layerCompile] = tc.Sub(t0)
	self[layerTables] = t1.Sub(tc) - b.Sub(a)
	self[layerSearch] = b.Sub(a)
	// Compile and first search are the operation itself, timed as it ran.
	tr.budget(t1.Sub(t0), t1.Sub(t0), self)
}

func (p *plan) verify(ph *phase) (int, error) {
	failed := 0
	for _, r := range ph.ops[0] {
		if r.bad {
			failed++
			continue
		}
		want, err := p.oracle.expect(0, r.qid)
		if err != nil {
			return 0, err
		}
		if want != r.hash {
			failed++
		}
	}
	return failed, nil
}

// paper is the paper's own pipeline, end to end, per operation: a fresh
// simulated Table-1 cluster, then for the Basic, NL and NS campaigns the
// measurement campaign, the fit (compose, adjust), and the estimated against
// the simulated-actual optimum at the evaluation sizes. It is the paper
// user's time to a verified recommendation; the simulator stack does most of
// the work. The inputs are the paper's and do not depend on the seed.
type paper struct {
	// errMaxPct is the largest execution-time error of the estimated
	// optimum over Basic and NL seen in the last run. It is deterministic.
	errMaxPct float64
}

// Accuracy the reproduction must show on every operation.
const (
	paperMaxErr    = 0.12 // Basic and NL: at most 12 % execution-time penalty
	paperNSFailure = 0.20 // NS: at least 20 % at some N >= 3200
)

func setupPaper() (*paper, error) {
	p := &paper{}
	// One pipeline before timing: the runtime's heap and the vmpi envelope
	// pools reach their steady size here.
	if _, bad, err := p.pipeline(nil, 0); err != nil || bad {
		return nil, fmt.Errorf("warm-up pipeline: failed check %v, error %v", bad, err)
	}
	return p, nil
}

// hash covers the campaigns' names and sizes: the pipeline's whole input.
func (p *paper) hash() uint64 {
	h := fnv.New64a()
	for _, c := range paperCampaigns() {
		fmt.Fprint(h, c.Name, c.Ns)
	}
	return h.Sum64()
}
func (p *paper) close()                      {}
func (p *paper) counters() (counters, error) { return selfCounters(), nil }

func paperCampaigns() []measure.Campaign {
	return []measure.Campaign{measure.BasicCampaign(), measure.NLCampaign(), measure.NSCampaign()}
}

// pipeline runs one operation and checks its accuracy claims.
func (p *paper) pipeline(tr *tracer, req int64) (time.Duration, bool, error) {
	var self [layerCount]time.Duration
	t0 := time.Now()
	ctx, err := experiments.NewPaperContext()
	if err != nil {
		return 0, true, err
	}
	ctx.Workers = 1
	type call struct {
		name     string
		from, to time.Time
	}
	var calls []call
	bad := false
	errMax := 0.0
	for _, camp := range paperCampaigns() {
		a := time.Now()
		bm, err := ctx.BuildModel(camp)
		if err != nil {
			return 0, true, err
		}
		b := time.Now()
		table, err := ctx.EvaluationTable(bm)
		if err != nil {
			return 0, true, err
		}
		c := time.Now()
		calls = append(calls, call{"experiments.build_" + camp.Name, a, b}, call{"experiments.eval_" + camp.Name, b, c})
		self[layerBuild] += b.Sub(a)
		self[layerEval] += c.Sub(b)
		if camp.Name == "NS" {
			failure := false
			for _, row := range table.Rows {
				if row.N >= 3200 && row.ErrExec >= paperNSFailure {
					failure = true
				}
			}
			bad = bad || !failure
			continue
		}
		if e := table.MaxExecError(); e > errMax {
			errMax = e
		}
	}
	t1 := time.Now()
	bad = bad || errMax > paperMaxErr
	p.errMaxPct = 100 * errMax
	if tr != nil {
		root := tr.add("client.op", t0, t1, 0, req)
		for _, c := range calls {
			tr.add(c.name, c.from, c.to, root, req)
		}
		direct := self[layerBuild] + self[layerEval]
		self[layerOther] = t1.Sub(t0) - direct
		tr.budget(t1.Sub(t0), direct, self)
	}
	return t1.Sub(t0), bad, nil
}

func (p *paper) run(d time.Duration, tr *tracer) (*phase, error) {
	var recs []opRec
	start := time.Now()
	deadline := start.Add(d)
	for i := int64(1); ; i++ {
		lat, bad, err := p.pipeline(tr, i)
		if err != nil {
			return nil, err
		}
		now := time.Now()
		recs = append(recs, opRec{end: now.Sub(start), lat: lat, bad: bad})
		if !now.Before(deadline) {
			break
		}
	}
	return &phase{elapsed: time.Since(start), ops: [][]opRec{recs}}, nil
}

func (p *paper) verify(ph *phase) (int, error) {
	failed := 0
	for _, r := range ph.ops[0] {
		if r.bad {
			failed++
		}
	}
	return failed, nil
}
