// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed: the measurement-cost tables (3, 6),
// the estimated-vs-actual optimal configuration tables (4, 7, 9), the
// multiprocessing and load-imbalance figures (1, 3), the NetPIPE throughput
// figure (2), and the correlation scatter plots (6–15), plus the ablations
// DESIGN.md calls out.
package experiments

import (
	"sync"

	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/hpl"
	"hetmodel/internal/measure"
	"hetmodel/internal/parallel"
	"hetmodel/internal/simnet"
)

// Context carries the simulated testbed and a memoized run cache so tables
// and figures that revisit the same configurations don't resimulate them.
// All methods are safe for concurrent callers: the cache deduplicates
// in-flight simulations, so two goroutines asking for the same
// (configuration, N) share one run instead of racing to compute it twice.
type Context struct {
	Cluster *cluster.Cluster
	Params  hpl.Params
	// Workers bounds the concurrency of campaign measurements (BuildModel)
	// and candidate sweeps (ActualBest): <= 0 selects GOMAXPROCS, 1 forces
	// sequential execution. Results are identical at any setting.
	Workers int

	mu    sync.Mutex
	cache map[runKey]*runEntry
}

// runKey identifies one memoized simulation: the configuration's canonical
// key plus the problem size. A comparable struct, so cache probes don't
// build a formatted string per lookup.
type runKey struct {
	cfg string
	n   int
}

// runEntry is one memoized simulation; ready closes when res/err are set,
// so concurrent requests for the same key wait instead of resimulating.
type runEntry struct {
	ready chan struct{}
	res   *hpl.Result
	err   error
}

// NewPaperContext returns the paper's evaluation platform: the Table 1
// cluster with the MPICH-1.2.2-like library (the paper measures with
// MPICH-1.2.5, which shares its fast shared-memory intra-node path).
func NewPaperContext() (*Context, error) {
	cl, err := cluster.NewPaper(simnet.NewMPICH122())
	if err != nil {
		return nil, err
	}
	return &Context{Cluster: cl, cache: make(map[runKey]*runEntry)}, nil
}

// NewContext builds a context over an arbitrary cluster.
func NewContext(cl *cluster.Cluster, params hpl.Params) *Context {
	return &Context{Cluster: cl, Params: params, cache: make(map[runKey]*runEntry)}
}

// Run simulates one configuration at one size, memoized. Concurrent calls
// with the same key block on one shared simulation; failed runs are not
// cached (waiters receive the error, later callers retry).
func (c *Context) Run(cfg cluster.Configuration, n int) (*hpl.Result, error) {
	key := runKey{cfg: cfg.Key(), n: n}
	c.mu.Lock()
	if e, ok := c.cache[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.res, e.err
	}
	e := &runEntry{ready: make(chan struct{})}
	c.cache[key] = e
	c.mu.Unlock()
	p := c.Params
	p.N = n
	e.res, e.err = hpl.Run(c.Cluster, cfg, p)
	if e.err != nil {
		c.mu.Lock()
		delete(c.cache, key)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.res, e.err
}

// BuiltModel bundles one campaign's models with their training data.
type BuiltModel struct {
	Campaign measure.Campaign
	Result   *measure.Result
	Models   *core.ModelSet
	// TaScale is the fitted Athlon←P-II composition factor (paper: 0.27).
	TaScale float64

	evalMu sync.Mutex
	evals  map[float64]*core.Evaluator
}

// EvaluatorAt returns Models compiled for problem size n, memoized per
// size and safe for concurrent callers. The evaluator snapshots the model
// set, so callers that mutate Models (the ablations) must compile their
// own instead of going through the cache.
func (bm *BuiltModel) EvaluatorAt(n int) *core.Evaluator {
	nf := float64(n)
	bm.evalMu.Lock()
	defer bm.evalMu.Unlock()
	if bm.evals == nil {
		bm.evals = make(map[float64]*core.Evaluator)
	}
	ev, ok := bm.evals[nf]
	if !ok {
		ev = bm.Models.Compile(nf)
		bm.evals[nf] = ev
	}
	return ev
}

// TcScaleDefault is the communication composition factor, hand-chosen as in
// the paper (§3.5, they use 0.85): single-PE runs cannot anchor it.
const TcScaleDefault = 0.85

// BuildModel runs the campaign, fits all models, composes the Athlon P-T
// models from the Pentium-II ones, and calibrates the §4.1 adjustment on
// the campaign's largest size with the full P-II set and M1 = 1..6 (the
// paper uses N = 6400, P2 = 8; see core.ModelSet.Adjust for why the sweep
// starts at M1 = 1 here).
func (c *Context) BuildModel(camp measure.Campaign) (*BuiltModel, error) {
	if camp.Workers == 0 {
		camp.Workers = c.Workers
	}
	res, err := measure.Run(c.Cluster, camp, c.Params)
	if err != nil {
		return nil, err
	}
	ms, err := core.Build(len(c.Cluster.Classes), res.Samples)
	if err != nil {
		return nil, err
	}
	taScale, err := ms.ComposeClassFitted(0, 1, TcScaleDefault)
	if err != nil {
		return nil, err
	}
	adjN := camp.Ns[len(camp.Ns)-1]
	calibRuns, err := parallel.Map(6, camp.Workers, func(i int) (*hpl.Result, error) {
		cfg := cluster.Configuration{Use: []cluster.ClassUse{{PEs: 1, Procs: i + 1}, {PEs: 8, Procs: 1}}}
		return c.Run(cfg, adjN)
	})
	if err != nil {
		return nil, err
	}
	var calib []core.Sample
	for _, r := range calibRuns {
		calib = append(calib, measure.SamplesFromResult(r)...)
	}
	if err := ms.FitAdjustment(calib); err != nil {
		return nil, err
	}
	// Persist the campaign and calibration samples in (class, M) bins: a
	// model file written from this set is incrementally refittable
	// (core.ModelSet.Refit) and exactly rebuildable (RebuildFromBins).
	ms.Bins = core.NewBinStore(res.Samples, calib)
	// Memory binning (§3.4): exclude configurations whose predetermined
	// per-node requirement exceeds physical memory — no training data
	// exists in the paging regime. The models carry the rule as data: each
	// class's nodes and HPL's per-rank 8·N²/P + 8·NB·N + workspace bytes.
	params := hpl.FillDefaults(c.Params)
	ms.Cluster = &cluster.Descriptor{
		Nodes:     make([][]cluster.NodeSpec, len(c.Cluster.Classes)),
		RankBytes: cluster.RankBytes{N2OverP: 8, N: 8 * float64(params.NB), Fixed: params.WorkspaceBytes},
	}
	for ci, class := range c.Cluster.Classes {
		for _, node := range class.Nodes {
			ms.Cluster.Nodes[ci] = append(ms.Cluster.Nodes[ci], cluster.NodeSpec{CPUs: node.CPUs, MemoryBytes: node.MemoryBytes})
		}
	}
	return &BuiltModel{Campaign: camp, Result: res, Models: ms, TaScale: taScale}, nil
}

// EvalConfigs returns the paper's 62 evaluation configurations.
func EvalConfigs() []cluster.Configuration {
	cfgs, err := cluster.PaperEvaluationSpace().Enumerate()
	if err != nil {
		// The paper space is a constant; enumeration cannot fail.
		panic(err)
	}
	return cfgs
}

// ActualBest simulates every candidate and returns the measured optimum.
// Candidates are simulated on c.Workers goroutines; the winner is chosen by
// a sequential scan over the candidate order (strictly smaller wall time
// wins, ties keep the earliest candidate), so the result is identical to
// the sequential sweep at any worker count.
func (c *Context) ActualBest(candidates []cluster.Configuration, n int) (cluster.Configuration, float64, error) {
	runs, err := parallel.Map(len(candidates), c.Workers, func(i int) (*hpl.Result, error) {
		return c.Run(candidates[i], n)
	})
	if err != nil {
		return cluster.Configuration{}, 0, err
	}
	best := cluster.Configuration{}
	bestT := 0.0
	for i, r := range runs {
		if i == 0 || r.WallTime < bestT {
			best, bestT = candidates[i], r.WallTime
		}
	}
	return best, bestT, nil
}
