package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// result is what a run reports; its JSON form is the run's last line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

func (r *result) jsonLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// instance is a workload set up and ready to be measured.
type instance interface {
	// run measures for d; with a tracer it also records spans.
	run(d time.Duration, tr *tracer) (*phase, error)
	// verify checks a phase's answers and returns the failed operations.
	verify(p *phase) (int, error)
	counters() (counters, error)
	hash() uint64
	close()
}

// clientCount is the closed loop's width: min(nproc, 4) clients, one
// keep-alive connection each.
func clientCount() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

func setup(cfg runConfig) (instance, error) {
	switch cfg.workload {
	case "paper_pipeline":
		return setupPaper()
	case "plan_cold", "plan_warm":
		return setupPlan(cfg.workload, cfg.seed)
	case "serve_hot", "serve_churn", "fleet_scatter":
		return setupServed(cfg.workload, cfg.seed, clientCount())
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// A run sets the workload up several times and reports the median as
// setup_s: at least setupMinReps times, and until setupBudget has been spent
// or setupMaxReps reached, because a set-up of tens of milliseconds is too
// short to time from a few samples.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupBudget  = time.Second
)

// traceEvery is the share of operations a traced run follows through the
// layers: one in traceEvery. Odd for the planning workloads, whose requests
// alternate between the two grids: an even stride would follow one grid only.
var traceEvery = map[string]int{
	"paper_pipeline": 1, "plan_cold": 17, "plan_warm": 17,
	"serve_hot": 8, "serve_churn": 8, "fleet_scatter": 8,
}

// runWorkload sets the workload up, measures it, verifies every answer and
// returns the metrics: the end-to-end ones for an untraced run, the
// per-layer ones for a traced run.
func runWorkload(cfg runConfig, log io.Writer) (*result, error) {
	var (
		inst   instance
		setups []float64
	)
	began := time.Now()
	for i := 0; i < setupMaxReps && (i < setupMinReps || time.Since(began) < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		next, err := setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		inst = next
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(log, "%s: seed %d, request sequence hash %016x, %d clients, GOMAXPROCS %d, %s\n",
		cfg.workload, cfg.seed, inst.hash(), clientCount(), runtime.GOMAXPROCS(0), runtime.Version())
	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{}

	if !cfg.trace {
		ph, err := inst.run(d, nil)
		if err != nil {
			return nil, err
		}
		failed, err := inst.verify(ph)
		if err != nil {
			return nil, err
		}
		_, p50, p99, n := ph.latencies()
		res.Attempted, res.Failed = n+len(ph.writes), failed
		res.Correct = failed == 0
		res.Metrics, err = declared(endToEnd, map[string]metric{
			"setup_s":    {Value: median(setups), N: len(setups)},
			"ops_per_s":  {Value: float64(n-failed) / ph.elapsed.Seconds(), N: n},
			"lat_p50_us": {Value: p50, N: n},
			"lat_p99_us": {Value: p99, N: n},
		})
		return res, err
	}

	// Traced run: the workload's layer probes, then the workload untraced for
	// half the time with the counters read around it, then traced for the
	// other half. The first half is the tracing overhead's baseline.
	measured := make(map[string]metric)
	probed, err := layerProbes(cfg.workload, cfg.outDir)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for _, m := range probed {
		measured[m.Name] = m
	}
	before, err := inst.counters()
	if err != nil {
		return nil, err
	}
	plain, err := inst.run(d/2, nil)
	if err != nil {
		return nil, err
	}
	after, err := inst.counters()
	if err != nil {
		return nil, err
	}
	tr := newTracer(traceEvery[cfg.workload])
	traced, err := inst.run(d/2, tr)
	if err != nil {
		return nil, err
	}
	for _, ph := range []*phase{plain, traced} {
		failed, err := inst.verify(ph)
		if err != nil {
			return nil, err
		}
		res.Attempted += ph.count() + len(ph.writes)
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	for _, m := range counterMetrics(before, after, plain) {
		measured[m.Name] = m
	}
	if !after.hasProc {
		fmt.Fprintln(log, "note: /proc is absent here; the CPU and RSS metrics are absent too")
	}
	if p, ok := inst.(*paper); ok {
		measured["client.est_err_max_pct"] = metric{Name: "client.est_err_max_pct", Value: p.errMaxPct, Unit: "%", N: plain.count()}
	}
	measured["client.fail_ratio"] = metric{Name: "client.fail_ratio", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", N: res.Attempted}
	for _, m := range tr.metrics() {
		measured[m.Name] = m
	}
	plainOps, _, _, _ := plain.latencies()
	tracedOps, _, _, n := traced.latencies()
	measured["trace.overhead_pct"] = metric{Name: "trace.overhead_pct", Value: 100 * (plainOps - tracedOps) / plainOps, Unit: "%", N: n}
	path, err := tr.write(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(log, "%s: spans written to %s\n", cfg.workload, path)

	res.Metrics, err = declared(perLayerMetrics(), measured)
	return res, err
}

// absent is the value of a declared metric the run has no samples of: the
// workload has no such layer, or the layer's probe belongs to another
// workload. Every measured metric that can be negative has samples, so N = 0
// tells the two apart where the value alone might not.
const absent = -1

// declared returns measured in declaration order, with the declared units
// and absent metrics filled in. A measured metric that is not declared is a
// bug in this package.
func declared(decls []metricDecl, measured map[string]metric) ([]metric, error) {
	out := make([]metric, 0, len(decls))
	for _, d := range decls {
		m, ok := measured[d.name]
		if !ok {
			m.Value = absent
		}
		m.Name, m.Unit = d.name, d.unit
		out = append(out, m)
		delete(measured, d.name)
	}
	if len(measured) > 0 {
		return nil, fmt.Errorf("metrics measured but not declared in metrics.go: %v", sortedKeys(measured))
	}
	return out, nil
}

// counterMetrics turns two counter snapshots around a phase into the
// per-layer metrics that are taken from /v1/stats and /proc.
func counterMetrics(before, after counters, ph *phase) []metric {
	ops := ph.count()
	n := float64(ops)
	kq := float64(after.stats.Queries-before.stats.Queries) / 1000
	per := func(name string, a, b int64) metric {
		v := 0.0
		if kq > 0 {
			v = float64(a-b) / kq
		}
		return metric{Name: name, Value: v, Unit: "per_kq", N: ops}
	}
	cpu := func(name, group string) metric {
		if !after.hasProc {
			return metric{Name: name, Value: absent}
		}
		return metric{Name: name, Value: micros(after.cpu[group]-before.cpu[group]) / n, Unit: "us", N: ops}
	}
	out := []metric{cpu("client.cpu_us_per_query", "client")}
	if len(ph.writes) > 0 {
		lats := make([]float64, len(ph.writes))
		for i, w := range ph.writes {
			lats[i] = micros(w.lat)
		}
		sort.Float64s(lats)
		out = append(out, metric{Name: "client.write_p50_us", Value: quantile(lats, 0.5), Unit: "us", N: len(lats)})
	}
	if kq == 0 {
		return out // no server behind this workload
	}
	hits := after.stats.CacheHits - before.stats.CacheHits
	misses := after.stats.CacheMisses - before.stats.CacheMisses
	out = append(out,
		metric{Name: "serve.cache_hit_ratio", Value: float64(hits) / float64(hits+misses), Unit: "ratio", N: int(hits + misses)},
		per("serve.compiles_per_kq", after.stats.Compiles, before.stats.Compiles),
		per("serve.evictions_per_kq", after.stats.Evictions, before.stats.Evictions),
		per("serve.coalesced_per_kq", after.stats.Coalesced, before.stats.Coalesced),
		per("serve.queued_per_kq", after.stats.Queued, before.stats.Queued),
		metric{Name: "serve.rejected", Unit: "count", N: ops,
			Value: float64(after.stats.RejectedQueue + after.stats.RejectedDeadline - before.stats.RejectedQueue - before.stats.RejectedDeadline)},
	)
	if after.hasProc {
		out = append(out, metric{Name: "serve.rss_peak_mb", Value: after.rssMB, Unit: "MiB", N: 1})
	}
	if after.fleet.GridSize == 0 {
		return append(out, cpu("serve.cpu_us_per_query", "members"))
	}
	return append(out,
		metric{Name: "fleet.retries", Value: float64(after.fleet.Retries - before.fleet.Retries), Unit: "count", N: ops},
		metric{Name: "fleet.rescatters", Value: float64(after.fleet.Rescatters - before.fleet.Rescatters), Unit: "count", N: ops},
		cpu("fleet.cpu_us_per_query", "router"),
		cpu("fleet.members_cpu_us_per_query", "members"),
	)
}

// printResult writes the human-readable table and then the JSON line. The
// table leaves absent metrics out and, on a traced run, heads each layer's
// numbers with what the layer should move.
func printResult(w io.Writer, name string, res *result) error {
	byName := make(map[string]metric, len(res.Metrics))
	for _, m := range res.Metrics {
		byName[m.Name] = m
	}
	row := func(d metricDecl) {
		if m, ok := byName[d.name]; ok && m.N > 0 {
			fmt.Fprintf(w, "%-16s %-34s %14.4f %-7s n=%d\n", name, m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, l := range perLayer {
		measured := false
		for _, d := range l.metrics {
			measured = measured || byName[d.name].N > 0
		}
		if !measured {
			continue
		}
		fmt.Fprintf(w, "# %s -> %s\n", l.layer, l.moves)
		for _, d := range l.metrics {
			row(d)
		}
	}
	line, err := res.jsonLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
