package main

// metric is one catalogue entry: a metric every run of the mode prints.
type metric struct {
	name, unit, better string
}

// endToEnd are measured with tracing off, on every workload. An "op" is
// the workload's unit of work: one dmcc compile (compile-mix), one
// exec.RunOpts (exec-scale), one GET /cost read (serve-mix).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer come from the traced run. Times are per traced op (summed
// self time of the layer's spans over the op count); counts are per op
// or per pass as NOTES.md defines them. A layer a workload never calls
// reads 0 there.
var perLayer = []metric{
	// compile-mix
	{"parse.us", "us", "lower"},
	{"align.ms", "ms", "lower"},
	{"align.calls", "count", "lower"},
	{"core.segment_cost.ms", "ms", "lower"},
	{"core.segment_cost.calls", "count", "lower"},
	{"core.change_cost.ms", "ms", "lower"},
	{"core.change_cost.calls", "count", "lower"},
	{"core.loop_carried.ms", "ms", "lower"},
	{"core.loop_carried.calls", "count", "lower"},
	{"cost.analytic_hits", "count", "higher"},
	{"cost.fastwalk_fallbacks", "count", "lower"},
	{"cost.exact_fallbacks", "count", "lower"},
	{"core.dp.self_ms", "ms", "lower"},
	{"core.scheme_sets", "count", "lower"},
	{"core.plan_cost_geomean", "cost", "lower"},
	{"core.dp_over_whole", "ratio", "lower"},
	{"dep.pipelining.ms", "ms", "lower"},
	{"codegen.ms", "ms", "lower"},
	// exec-scale
	{"exec.run_ms", "ms", "lower"},
	{"exec.host_ms", "ms", "lower"},
	{"exec.alloc_mb", "MB", "lower"},
	{"machine.sim_ms", "ms", "lower"},
	{"exec.transport_messages", "count", "lower"},
	{"exec.transport_words", "count", "lower"},
	{"exec.max_pair_words", "count", "lower"},
	{"exec.max_msg_words", "count", "lower"},
	{"makespan_geomean", "simtime", "lower"},
	{"exec.naive_makespan_geomean", "simtime", "lower"},
	{"core.predicted_over_simulated", "ratio", "higher"},
	{"ir.interp_ms", "ms", "lower"},
	// serve-mix
	{"serve.rtt_us.p50", "us", "lower"},
	{"serve.rtt_us.p99", "us", "lower"},
	{"cost_us_p99", "us", "lower"},
	{"compile_req_ms_p50", "ms", "lower"},
	{"serve.server_us.p50", "us", "lower"},
	{"serve.handler_us.p50", "us", "lower"},
	{"serve.alloc_kb_per_req", "KB", "lower"},
	{"core.evalat_ns.p50", "ns", "lower"},
	{"sweep.plan_for_ms.p50", "ms", "lower"},
	{"artifact.hits", "count", "lower"},
	{"artifact.misses", "count", "lower"},
	{"artifact.puts", "count", "lower"},
	{"serve.compiles", "count", "lower"},
	{"serve.compile_hits", "count", "lower"},
	{"serve.cost_evals", "count", "lower"},
	// every workload
	{"trace.overhead_pct", "%", "lower"},
}
