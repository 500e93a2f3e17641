package main

// This file is the benchmark's side of BENCHMARK.json: the workloads and
// every metric name it emits, with units. main_test.go checks the two agree.

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{
	"paper_pipeline", "plan_cold", "plan_warm", "serve_hot", "serve_churn", "fleet_scatter",
}

// defaultSeconds is each workload's measured time when -seconds is not
// given. The planning workloads complete thousands of operations a second in
// one process and are steady after 10 s; the others either complete few
// operations (paper_pipeline) or share two cores between processes.
var defaultSeconds = map[string]float64{
	"paper_pipeline": 20, "plan_cold": 10, "plan_warm": 10,
	"serve_hot": 20, "serve_churn": 20, "fleet_scatter": 20,
}

type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload emits
// every one on an untraced run.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
}

// layerDecl is the metrics of one layer, with the prediction the benchmark
// makes for them: which end-to-end metric, on which workload, a change to
// the layer should move. BENCHMARK.json has no field for it, so it is
// declared here and printed above the layer's numbers on a traced run.
type layerDecl struct {
	layer   string
	moves   string
	metrics []metricDecl
}

// perLayer are the metrics of single layers; every workload emits every name
// on a traced run. A layer probe runs in the one workload named first in its
// moves; the serve.*, fleet.* and client.* counters are taken around the run
// of the workloads that have such a process. Everywhere else a metric is
// absent: it has no samples and reads -1.
var perLayer = []layerDecl{
	{"experiments", "lat_p50_us, ops_per_s on paper_pipeline", []metricDecl{
		{"experiments.build_basic_ms", "ms"},
		{"experiments.build_nl_ms", "ms"},
		{"experiments.build_ns_ms", "ms"},
		{"experiments.eval_table_ms", "ms"},
	}},
	{"measure", "lat_p50_us, ops_per_s on paper_pipeline", []metricDecl{
		{"measure.campaign_nl_ms", "ms"},
		{"measure.runs", "count"},
	}},
	{"hpl", "lat_p50_us, ops_per_s on paper_pipeline", []metricDecl{
		{"hpl.run_n1600_us", "us"},
		{"hpl.run_n9600_us", "us"},
	}},
	{"vmpi, des", "lat_p50_us, ops_per_s on paper_pipeline", []metricDecl{
		{"vmpi.sendrecv_ns", "ns"},
		{"des.event_ns", "ns"},
	}},
	{"core (fit)", "client.write_p50_us on serve_churn; setup_s everywhere; paper_pipeline slightly", []metricDecl{
		{"core.build_us", "us"},
		{"core.refit_onebin_us", "us"},
		{"core.rebuild_us", "us"},
	}},
	{"core (compile)", "lat_p50_us, ops_per_s on plan_cold; lat_p99_us on serve_churn", []metricDecl{
		{"core.compile_us", "us"},
		{"core.tables_us", "us"},
	}},
	{"cluster", "setup_s on plan_cold, plan_warm, serve_*, fleet_scatter", []metricDecl{
		{"cluster.space_compile_us", "us"},
	}},
	{"core (search)", "all three on plan_warm; lat_p50_us on serve_hot by at most the kernel's share; fleet_scatter through the slowest member", []metricDecl{
		{"core.search_best_us", "us"},
		{"core.search_top8_us", "us"},
		{"core.search_top64_us", "us"},
		{"core.search_constrained_us", "us"},
		{"core.search_shard_us", "us"},
		{"core.search_1b_top8_us", "us"},
		{"core.scored_per_search", "count"},
		{"core.pruned_ratio", "ratio"},
		{"core.search_allocs", "count"},
	}},
	{"serve (hit path)", "all three on serve_hot", []metricDecl{
		{"serve.query_hit_us", "us"},
		{"serve.handler_hit_us", "us"},
		{"serve.codec_us", "us"},
		{"serve.socket_us", "us"},
	}},
	{"workload", "setup_s on serve_hot, serve_churn, fleet_scatter, plan_*", []metricDecl{
		{"workload.generate_10k_ms", "ms"},
	}},
	{"serve (miss path, swaps)", "all three and client.write_p50_us on serve_churn", []metricDecl{
		{"serve.query_miss_us", "us"},
		{"serve.refit_rekey_us", "us"},
		{"serve.refit_invalidate_us", "us"},
		{"serve.reload_us", "us"},
	}},
	{"fleet", "all three on fleet_scatter; with five processes on two cores member_sum, not member_max, bounds ops_per_s", []metricDecl{
		{"fleet.query_scatter_us", "us"},
		{"fleet.query_affine_us", "us"},
		{"fleet.handler_us", "us"},
		{"fleet.member_max_us", "us"},
		{"fleet.member_sum_us", "us"},
		{"fleet.overhead_us", "us"},
		{"fleet.reload_2pc_us", "us"},
	}},
	{"parallel", "lat_p50_us on fleet_scatter", []metricDecl{
		{"parallel.merge_topk_ns", "ns"},
	}},
	// Counters taken around the untraced half of the traced run.
	{"serve (counters)", "serve_hot, serve_churn (fleet_scatter: summed over its members); serve.cpu_us_per_query is ops_per_s, the member shares two cores with the client", []metricDecl{
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.compiles_per_kq", "per_kq"},
		{"serve.evictions_per_kq", "per_kq"},
		{"serve.coalesced_per_kq", "per_kq"},
		{"serve.queued_per_kq", "per_kq"},
		{"serve.rejected", "count"},
		{"serve.cpu_us_per_query", "us"},
		{"serve.rss_peak_mb", "MiB"},
	}},
	{"fleet (counters)", "ops_per_s on fleet_scatter", []metricDecl{
		{"fleet.retries", "count"},
		{"fleet.rescatters", "count"},
		{"fleet.cpu_us_per_query", "us"},
		{"fleet.members_cpu_us_per_query", "us"},
	}},
	{"benchmark (client)", "not a layer of the program: the client's own cost, and the three numbers only one workload has", []metricDecl{
		{"client.cpu_us_per_query", "us"},
		{"client.write_p50_us", "us"},
		{"client.est_err_max_pct", "%"},
		{"client.fail_ratio", "ratio"},
	}},
	// The traced half: the budget of one operation, layer by layer.
	{"benchmark (trace)", "the budget of one operation of this workload; a layer it spends no time in reads 0", []metricDecl{
		{"trace.root_us", "us"},
		{"trace.socket_us", "us"},
		{"trace.codec_us", "us"},
		{"trace.query_us", "us"},
		{"trace.compile_us", "us"},
		{"trace.tables_us", "us"},
		{"trace.search_us", "us"},
		{"trace.members_us", "us"},
		{"trace.merge_us", "us"},
		{"trace.build_us", "us"},
		{"trace.eval_us", "us"},
		{"trace.other_us", "us"},
		{"trace.coverage_pct", "%"},
		{"trace.clamped_pct", "%"},
		{"trace.overhead_pct", "%"},
	}},
}

// perLayerMetrics flattens perLayer in declaration order.
func perLayerMetrics() []metricDecl {
	var out []metricDecl
	for _, l := range perLayer {
		out = append(out, l.metrics...)
	}
	return out
}
