package main

// metricDef names a metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names with the
// same units (bench_test.go checks), and every run prints every name of
// the table its --trace value selects. A per-layer metric of a layer a
// workload does not reach reads 0 there.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off. The operation of a
// batch workload is one core.Pipeline.Run; of quote-serve, one quote in
// the closed-loop phase.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"trials_per_s", "1/s"},
	{"cpu_s_per_mtrial", "s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer metrics come from the traced run. The layer is the module
// name before the dot.
var perLayer = []metricDef{
	{"catalog.busy_s", "s"},
	{"catalog.events", "count"},
	{"exposure.busy_s", "s"},
	{"exposure.interests", "count"},
	{"synth.busy_s", "s"},
	{"catmodel.busy_s", "s"},
	{"catmodel.pairs", "count"},
	{"catmodel.ns_per_pair", "ns"},
	{"catmodel.elt_records", "count"},
	{"lossindex.build_s", "s"},
	{"lossindex.flatten_s", "s"},
	{"lossindex.entries", "count"},
	{"lossindex.bytes", "B"},
	{"yelt.gen_busy_s", "s"},
	{"yelt.occurrences", "count"},
	{"yelt.ns_per_occ", "ns"},
	{"yelt.spill_s", "s"},
	{"yelt.spill_bytes", "B"},
	{"yelt.spill_mib_per_s", "MiB/s"},
	{"yelt.scan_s", "s"},
	{"yelt.scan_mib_per_s", "MiB/s"},
	{"yelt.failovers", "count"},
	{"diskstore.bytes_on_disk", "B"},
	{"diskstore.shards", "count"},
	{"mapreduce.map_busy_s", "s"},
	{"mapreduce.local_share", "ratio"},
	{"mapreduce.map_retries", "count"},
	{"mapreduce.spec_launched", "count"},
	{"aggregate.busy_s", "s"},
	{"aggregate.trials", "count"},
	{"aggregate.ns_per_occ", "ns"},
	{"aggregate.trials_per_s", "1/s"},
	{"aggregate.peak_resident_bytes", "B"},
	{"dfa.busy_s", "s"},
	{"dfa.ns_per_trial", "ns"},
	{"dfa.bytes", "B"},
	{"metrics.busy_s", "s"},
	{"metrics.ns_per_trial", "ns"},
	{"warehouse.build_s", "s"},
	{"warehouse.cells", "count"},
	{"warehouse.query_us", "us"},
	{"risk.warm_s", "s"},
	{"risk.quote_total_ms", "ms"},
	{"risk.quote_sim_ms", "ms"},
	{"risk.quote_post_ms", "ms"},
	{"serve.closed_qps", "1/s"},
	{"serve.closed_p95_ms", "ms"},
	{"serve.closed_p99_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.open_p50_ms", "ms"},
	{"serve.open_p95_ms", "ms"},
	{"serve.open_late_max_ms", "ms"},
	{"serve.cube_p50_us", "us"},
	{"serve.rejected", "count"},
	{"serve.timeouts", "count"},
	{"serve.statz_p50_ms", "ms"},
	{"core.self_s", "s"},
	{"core.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}
