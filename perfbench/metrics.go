package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a run with --trace 0 prints. Every workload measures
// every one of them, each on its own operations (NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p99", "ms"},
	{"mem_peak_mb", "MiB"},
}

// perLayer is what a run with --trace 1 prints. A layer the workload does
// not exercise reports 0.
var perLayer = []metricDef{
	// Workload figures that only one workload has (NOTES.md says why they
	// are not end-to-end metrics), from the traced run's untraced phase.
	{"gather.gather_s", "s"},
	{"gather.rounds", "count"},
	{"frontier.snapshot_ms", "ms"},
	{"frontier.restore_ms", "ms"},
	{"service.lifecycle_ms_p50", "ms"},
	{"service.lifecycle_ms_p99", "ms"},
	{"service.restore_ms_p50", "ms"},
	{"service.failed_ratio", "ratio"},
	{"service.max_rate_per_s", "1/s"},
	{"service.gen_late_ms_p99", "ms"},
	{"service.backlog_max", "count"},

	{"core.compute_ns_per_robot", "ns"},
	{"core.compute_est_share", "ratio"},

	{"fsync.step_ms_p50", "ms"},
	{"fsync.step_ms_p99", "ms"},
	{"fsync.activations", "count"},
	{"fsync.workers", "count"},
	{"fsync.quiesce_computed", "count"},
	{"fsync.quiesce_skipped", "count"},
	{"fsync.quiesce_skip_ratio", "ratio"},

	{"world.connected_us_p50", "us"},
	{"world.connected_us_p99", "us"},
	{"world.connected_bfs_us_p50", "us"},
	{"world.conn_relabels", "count"},
	{"world.conn_fallbacks", "count"},

	{"world.append_state_ms", "ms"},
	{"world.decode_dense_ms", "ms"},
	{"fsync.append_state_ms", "ms"},
	{"fsync.new_restored_ms", "ms"},
	{"codec.snapshot_bytes", "bytes"},

	{"serve.create_ms_p50", "ms"},
	{"serve.step_ms_p50", "ms"},
	{"serve.evict_ms_p50", "ms"},
	{"serve.restore_step_ms_p50", "ms"},
	{"serve.snapshot_ms_p50", "ms"},
	{"serve.delete_ms_p50", "ms"},
	{"serve.transport_ms_p50", "ms"},

	{"store.put_ms_p50", "ms"},
	{"store.get_ms_p50", "ms"},
	{"pool.evictions", "count"},
	{"pool.lru_spills", "count"},
	{"pool.restores", "count"},
	{"pool.max_resident", "count"},
	{"pool.rejected", "count"},

	{"sched.relaxed_step_ms_p50", "ms"},

	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MiB"},

	{"host.calib_ms_start", "ms"},
	{"host.calib_ms_end", "ms"},

	{"trace.overhead_pct", "%"},
}
