package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hetmodel"
	"hetmodel/internal/cluster"
	"hetmodel/internal/core"
	"hetmodel/internal/des"
	"hetmodel/internal/experiments"
	"hetmodel/internal/fleet"
	"hetmodel/internal/measure"
	"hetmodel/internal/parallel"
	"hetmodel/internal/serve"
	"hetmodel/internal/vmpi"
	"hetmodel/internal/workload"
)

// The layer probes time calls into each layer's public functions from
// outside, on fixtures of their own, so a layer's number moves only when the
// layer does. Each is a median over a fixed number of repetitions. A probe
// runs in the traced run of one workload — the one whose end-to-end metrics
// its layer should move first — so a full run measures each layer once.

// probeN is the problem size the core, serve and fleet probes query: the
// size internal/bench has tracked since the compiled search landed.
const probeN = 3200

type probes struct {
	out []metric
}

func (p *probes) add(name string, value float64, unit string, n int) {
	p.out = append(p.out, metric{Name: name, Value: value, Unit: unit, N: n})
}

// us adds the median duration of reps calls of f, in microseconds.
func (p *probes) us(name string, reps int, f func()) time.Duration {
	d := timeMedian(reps, f)
	p.add(name, micros(d), "us", reps)
	return d
}

// workloadProbes assigns every probe to its workload.
var workloadProbes = map[string][]func(p *probes, outDir string) error{
	"paper_pipeline": {probeSimulator},
	"plan_cold":      {probeCompile},
	"plan_warm":      {probeSearch},
	"serve_hot":      {probeServeHit, probeWorkload},
	"serve_churn":    {probeFit, probeServeSwap},
	"fleet_scatter":  {probeFleet},
}

func layerProbes(workload, outDir string) ([]metric, error) {
	p := &probes{}
	for _, step := range workloadProbes[workload] {
		if err := step(p, outDir); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// probeSimulator covers the paper pipeline's layers: experiments, measure,
// hpl, vmpi, des.
func probeSimulator(p *probes, _ string) error {
	const reps = 3
	build := make(map[string][]float64)
	var eval []float64
	for i := 0; i < reps; i++ {
		ctx, err := experiments.NewPaperContext()
		if err != nil {
			return err
		}
		ctx.Workers = 1
		var evalSum time.Duration
		for _, camp := range paperCampaigns() {
			t0 := time.Now()
			bm, err := ctx.BuildModel(camp)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := ctx.EvaluationTable(bm); err != nil {
				return err
			}
			build[camp.Name] = append(build[camp.Name], millis(t1.Sub(t0)))
			evalSum += time.Since(t1)
		}
		eval = append(eval, millis(evalSum))
	}
	p.add("experiments.build_basic_ms", median(build["Basic"]), "ms", reps)
	p.add("experiments.build_nl_ms", median(build["NL"]), "ms", reps)
	p.add("experiments.build_ns_ms", median(build["NS"]), "ms", reps)
	p.add("experiments.eval_table_ms", median(eval), "ms", reps)

	cl, err := hetmodel.NewPaperCluster()
	if err != nil {
		return err
	}
	camp := measure.NLCampaign()
	camp.Workers = 1
	runs := 0
	var runErr error
	d := timeMedian(reps, func() {
		res, err := measure.Run(cl, camp, hetmodel.HPLParams{})
		if err != nil {
			runErr = err
			return
		}
		runs = res.Runs
	})
	if runErr != nil {
		return runErr
	}
	p.add("measure.campaign_nl_ms", millis(d), "ms", reps)
	p.add("measure.runs", float64(runs), "count", 1)

	cfg := hetmodel.Configuration{Use: []hetmodel.ClassUse{{PEs: 1, Procs: 4}, {PEs: 8, Procs: 1}}}
	for _, n := range []int{1600, 9600} {
		p.us(fmt.Sprintf("hpl.run_n%d_us", n), 7, func() {
			if _, err := hetmodel.RunHPL(cl, cfg, hetmodel.HPLParams{N: n}); err != nil {
				runErr = err
			}
		})
	}
	if runErr != nil {
		return runErr
	}

	const pingPongs = 10000
	world, err := vmpi.NewWorld(2, func(float64, int, int) float64 { return 1e-6 })
	if err != nil {
		return err
	}
	d = timeMedian(reps, func() {
		world.Run(func(proc *vmpi.Proc) {
			peer := 1 - proc.Rank()
			for i := 0; i < pingPongs; i++ {
				if proc.Rank() == 0 {
					proc.Send(peer, 0, nil, 8)
					proc.Recv(peer, 0)
				} else {
					proc.Recv(peer, 0)
					proc.Send(peer, 0, nil, 8)
				}
			}
		})
	})
	p.add("vmpi.sendrecv_ns", float64(d)/(2*pingPongs), "ns", 2*pingPongs)

	const events = 100000
	d = timeMedian(reps, func() {
		var sim des.Simulation
		fired := 0
		for i := 0; i < events; i++ {
			if err := sim.Schedule(float64(i%977)*1e-3, func() { fired++ }); err != nil {
				runErr = err
				return
			}
		}
		sim.Run()
	})
	if runErr != nil {
		return runErr
	}
	p.add("des.event_ns", float64(d)/events, "ns", events)
	return nil
}

// probeFit covers core's fitting side: what a refit, and the set-up of every
// workload, runs.
func probeFit(p *probes, _ string) error {
	samples := trainingSamples()
	var err error
	p.us("core.build_us", 7, func() {
		if _, e := core.Build(modelClasses, samples); e != nil {
			err = e
		}
	})
	base, e := buildModel()
	if e != nil {
		return e
	}
	s, _ := refitDelta(base, 0, 0)
	delta := core.SampleDelta{Samples: []core.Sample{s.Sample()}}
	p.us("core.refit_onebin_us", 21, func() {
		if _, _, e := base.Refit(delta); e != nil {
			err = e
		}
	})
	p.us("core.rebuild_us", 7, func() {
		if _, e := base.RebuildFromBins(); e != nil {
			err = e
		}
	})
	return err
}

// probeCompile covers what plan_cold pays per operation and every set-up
// once: cluster's space compiler, core's evaluator compile and the grid
// tables a first search builds.
func probeCompile(p *probes, _ string) error {
	base, err := buildModel()
	if err != nil {
		return err
	}
	p.us("cluster.space_compile_us", 21, func() {
		for id := 0; id < gridCount; id++ {
			if _, e := gridSpace(id).Compile(); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	g1m, err := gridSpace(grid1M).Compile()
	if err != nil {
		return err
	}
	top8 := query{N: probeN, TopK: 8}.searchOptions(g1m.Size())
	p.us("core.compile_us", 101, func() { base.Compile(probeN) })

	const reps = 51
	tables := make([]float64, reps)
	for i := range tables {
		ev := base.Compile(probeN)
		t0 := time.Now()
		if _, err := ev.Search(g1m, top8); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := ev.Search(g1m, top8); err != nil {
			return err
		}
		tables[i] = micros(t1.Sub(t0) - time.Since(t1))
	}
	p.add("core.tables_us", median(tables), "us", reps)
	return nil
}

// probeSearch covers core's search side on table-warm evaluators.
func probeSearch(p *probes, _ string) error {
	base, err := buildModel()
	if err != nil {
		return err
	}
	g1m, err := gridSpace(grid1M).Compile()
	if err != nil {
		return err
	}
	g1b, err := gridSpace(grid1B).Compile()
	if err != nil {
		return err
	}
	top8 := query{N: probeN, TopK: 8}.searchOptions(g1m.Size())
	ev := base.Compile(probeN)
	search := func(name string, ev *core.Evaluator, grid *cluster.Grid, q query) error {
		opts := q.searchOptions(grid.Size())
		if _, err := ev.Search(grid, opts); err != nil { // builds the tables
			return err
		}
		p.us(name, 201, func() { ev.Search(grid, opts) }) //nolint:errcheck // checked one line up
		return nil
	}
	for _, c := range []struct {
		name string
		q    query
	}{
		{"core.search_best_us", query{N: probeN}},
		{"core.search_top8_us", query{N: probeN, TopK: 8}},
		{"core.search_top64_us", query{N: probeN, TopK: 64}},
		{"core.search_constrained_us", query{N: probeN, Cons: true}},
		{"core.search_shard_us", query{N: probeN, TopK: 8, Shard: true}},
	} {
		if err := search(c.name, ev, g1m, c.q); err != nil {
			return err
		}
	}
	if err := search("core.search_1b_top8_us", base.Compile(probeN), g1b, query{N: probeN, TopK: 8, Grid: grid1B}); err != nil {
		return err
	}
	// Sequential counts are exact: the same on every run of the same code.
	res, err := ev.Search(g1m, top8)
	if err != nil {
		return err
	}
	p.add("core.scored_per_search", float64(res.Scored), "count", 1)
	p.add("core.pruned_ratio", float64(res.Pruned)/float64(res.Scored+res.Pruned), "ratio", 1)
	p.add("core.search_allocs", testing.AllocsPerRun(50, func() { ev.Search(g1m, top8) }), "count", 50) //nolint:errcheck
	return nil
}

// serveLoopback runs a handler behind a zero-value http.Server on a loopback
// socket, as the member role does.
func serveLoopback(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at stop
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// handle runs one POST through a handler into a recorder.
func handle(h http.Handler, body []byte) int {
	req, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// probePlanner is the serve probes' fixture: a planner configured like the
// member role, and the warm-up that fills its evaluator cache with the hot
// sizes and the probed query.
func probePlanner() (base *core.ModelSet, planner *serve.Planner, warm func() error, err error) {
	if base, err = buildModel(); err != nil {
		return nil, nil, nil, err
	}
	if planner, err = serve.New(base, gridSpace(grid1M), memberOptions(refitAuth)); err != nil {
		return nil, nil, nil, err
	}
	ctx := context.Background()
	warm = func() error {
		for _, n := range hotSizes {
			if _, err := planner.Query(ctx, serve.Query{N: n}); err != nil {
				return err
			}
		}
		_, err := planner.Query(ctx, planQuery(probeQuery))
		return err
	}
	return base, planner, warm, warm()
}

// probeQuery is the request the serve and fleet probes send.
var probeQuery = query{N: probeN, TopK: 8}

// probeServeHit covers the serve layer's hit path in process: the query
// call, the handler (so the codec by difference) and a loopback socket (so
// the socket by difference).
func probeServeHit(p *probes, _ string) error {
	_, planner, _, err := probePlanner()
	if err != nil {
		return err
	}
	ctx := context.Background()
	hit := p.us("serve.query_hit_us", 501, func() {
		if _, e := planner.Query(ctx, planQuery(probeQuery)); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	body, err := json.Marshal(probeQuery.wire())
	if err != nil {
		return err
	}
	handler := planner.Handler()
	handled := p.us("serve.handler_hit_us", 501, func() {
		if handle(handler, body) != http.StatusOK {
			err = fmt.Errorf("serve handler probe: not 200")
		}
	})
	if err != nil {
		return err
	}
	p.add("serve.codec_us", micros(handled-hit), "us", 501)

	addr, stop, err := serveLoopback(handler)
	if err != nil {
		return err
	}
	defer stop()
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	req, err := post("/v1/query", nil, probeQuery.wire())
	if err != nil {
		return err
	}
	socket := timeMedian(501, func() {
		if status, _, e := c.do(req); e != nil || status != http.StatusOK {
			err = fmt.Errorf("serve socket probe: status %d, %v", status, e)
		}
	})
	if err != nil {
		return err
	}
	p.add("serve.socket_us", micros(socket-handled), "us", 501)
	return nil
}

// probeServeSwap covers the serve layer's miss path and the three ways a
// model is swapped, each on a cache holding the hot sizes.
func probeServeSwap(p *probes, _ string) error {
	base, planner, warm, err := probePlanner()
	if err != nil {
		return err
	}
	ctx := context.Background()
	miss := 4000
	p.us("serve.query_miss_us", 101, func() {
		miss++
		if _, e := planner.Query(ctx, serve.Query{N: miss, TopK: 8}); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	swapped := func(name string, swap func() error) error {
		ds := make([]float64, 0, 11)
		for i := 0; i < cap(ds); i++ {
			if err := warm(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := swap(); err != nil {
				return err
			}
			ds = append(ds, micros(time.Since(t0)))
		}
		p.add(name, median(ds), "us", len(ds))
		return nil
	}
	// The refit state alternates so that every refit changes a sample.
	state := refitState(0)
	refit := func(write int) func() error {
		return func() error {
			sample, next := refitDelta(base, state, write)
			state = next
			_, err := planner.Refit(core.SampleDelta{Samples: []core.Sample{sample.Sample()}})
			return err
		}
	}
	if err := swapped("serve.refit_rekey_us", refit(0)); err != nil {
		return err
	}
	if err := swapped("serve.refit_invalidate_us", refit(1)); err != nil {
		return err
	}
	return swapped("serve.reload_us", func() error {
		_, err := planner.Reload(base)
		return err
	})
}

// probeFleet covers the fleet layer and the top-K merge: a router in this
// process over three planners behind loopback sockets, also in this process.
func probeFleet(p *probes, outDir string) error {
	base, err := buildModel()
	if err != nil {
		return err
	}
	var urls, addrs []string
	for i := 0; i < fleetMembers; i++ {
		planner, err := serve.New(base, gridSpace(grid1M), memberOptions(""))
		if err != nil {
			return err
		}
		addr, stop, err := serveLoopback(planner.Handler())
		if err != nil {
			return err
		}
		defer stop()
		addrs = append(addrs, addr)
		urls = append(urls, "http://"+addr)
	}
	ctx := context.Background()
	hot := probeQuery
	scatter, err := fleet.New(gridSpace(grid1M), routerOptions(urls))
	if err != nil {
		return err
	}
	affineOpts := routerOptions(urls)
	affineOpts.ShardMin = 1 << 40 // above the grid size: every query routes whole to one member
	affine, err := fleet.New(gridSpace(grid1M), affineOpts)
	if err != nil {
		return err
	}
	for _, r := range []*fleet.Router{scatter, affine} {
		if healthy := r.CheckHealth(ctx); healthy != fleetMembers {
			return fmt.Errorf("fleet probe: %d of %d members healthy", healthy, fleetMembers)
		}
		if _, err := r.Query(ctx, hot.wire()); err != nil {
			return err
		}
	}
	const reps = 201
	scattered := p.us("fleet.query_scatter_us", reps, func() {
		if _, e := scatter.Query(ctx, hot.wire()); e != nil {
			err = e
		}
	})
	p.us("fleet.query_affine_us", reps, func() {
		if _, e := affine.Query(ctx, hot.wire()); e != nil {
			err = e
		}
	})
	body, e := json.Marshal(hot.wire())
	if e != nil {
		return e
	}
	handler := scatter.Handler()
	p.us("fleet.handler_us", reps, func() {
		if handle(handler, body) != http.StatusOK {
			err = fmt.Errorf("fleet handler probe: not 200")
		}
	})
	if err != nil {
		return err
	}

	// The members' share, from outside the router: the same shard requests
	// the router sends, timed one by one.
	size := scatter.Grid().Size()
	conns := make([]*conn, fleetMembers)
	shards := make([][]byte, fleetMembers)
	lists := make([][]parallel.Candidate, fleetMembers)
	for i := range conns {
		if conns[i], err = dial(addrs[i]); err != nil {
			return err
		}
		defer conns[i].close()
		w := hot.wire()
		w.ShardLo, w.ShardHi = size*int64(i)/fleetMembers, size*int64(i+1)/fleetMembers
		if shards[i], err = post("/v1/query", nil, w); err != nil {
			return err
		}
	}
	maxes, sums := make([]float64, reps), make([]float64, reps)
	var ans answer
	for r := 0; r < reps; r++ {
		for i, c := range conns {
			t0 := time.Now()
			status, body, err := c.do(shards[i])
			d := micros(time.Since(t0))
			if err != nil || status != http.StatusOK || !scanAnswer(body, &ans) {
				return fmt.Errorf("fleet member probe: status %d, %v", status, err)
			}
			lists[i] = append(lists[i][:0], ans.ranked...)
			sums[r] += d
			if d > maxes[r] {
				maxes[r] = d
			}
		}
	}
	memberMax := median(maxes)
	p.add("fleet.member_max_us", memberMax, "us", reps)
	p.add("fleet.member_sum_us", median(sums), "us", reps)
	const merges = 1000
	merge := timeMedian(5, func() {
		for i := 0; i < merges; i++ {
			parallel.MergeTopK(hot.TopK, lists)
		}
	}) / merges
	p.add("parallel.merge_topk_ns", float64(merge), "ns", merges)
	p.add("fleet.overhead_us", micros(scattered)-memberMax-micros(merge), "us", reps)

	// Coordinated reload: stage on every member, then commit on every member.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path, err := filepath.Abs(filepath.Join(outDir, "model.json"))
	if err != nil {
		return err
	}
	raw, err := json.Marshal(base)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	p.us("fleet.reload_2pc_us", 5, func() {
		if _, e := scatter.Reload(ctx, path); e != nil {
			err = e
		}
	})
	return err
}

func probeWorkload(p *probes, _ string) error {
	gs := genSpecs["serve_hot"]
	spec := workload.Spec{
		Name: "probe", Seed: 1004, DurationNs: 1e9,
		Arrival: workload.ArrivalSpec{Process: workload.ProcessPoisson, RateQPS: 10000},
	}
	for _, c := range cohortOrder {
		if w := gs.mix[c]; w > 0 {
			spec.Cohorts = append(spec.Cohorts, cohort(c, w, gs.sizes, gs.zipfS))
		}
	}
	var err error
	d := timeMedian(7, func() {
		if _, e := workload.Generate(spec); e != nil {
			err = e
		}
	})
	p.add("workload.generate_10k_ms", millis(d), "ms", 7)
	return err
}
