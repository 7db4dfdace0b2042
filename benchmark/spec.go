package main

// The metric tables. BENCHMARK.json lists exactly these names, units,
// directions and bounds; TestBenchmarkJSONMatchesSpec holds the two together.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported per workload
// from the untraced pass. Bound is the share of the parent's median by which
// the metric may get worse before a change counts as a regression.
var endToEnd = []metricDef{
	{"op_mean_ms", "ms", "lower", 0.25},
	{"work_per_s", "units/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported per workload from the
// traced pass. A layer that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"op_p50_ms", "ms", "lower", 0},
	{"op_p90_ms", "ms", "lower", 0},
	{"core.update_ns", "ns", "lower", 0},
	{"core.update_calls_per_op", "count", "lower", 0},
	{"core.update_busy_share", "ratio", "lower", 0},
	{"core.reconcile_ratio", "ratio", "lower", 0},
	{"adversary.write_calls_per_op", "count", "lower", 0},
	{"adversary.write_busy_share", "ratio", "lower", 0},
	{"sim.self_share", "ratio", "lower", 0},
	{"sim.worker_speedup", "x", "higher", 0},
	{"sim.replay_vecrounds_per_s", "1/s", "higher", 0},
	{"sim.allocs_per_op", "count", "lower", 0},
	{"async.events_per_s", "1/s", "higher", 0},
	{"async.self_share", "ratio", "lower", 0},
	{"async.allocs_per_op", "count", "lower", 0},
	{"quorum.put_ns", "ns", "lower", 0},
	{"quorum.gather_ns", "ns", "lower", 0},
	{"transport.inproc_send_ns", "ns", "lower", 0},
	{"transport.tcp_send_ns", "ns", "lower", 0},
	{"transport.tcp_rtt_p50_us", "us", "lower", 0},
	{"transport.tcp_rtt_p99_us", "us", "lower", 0},
	{"transport.tcp_setup_ms", "ms", "lower", 0},
	{"transport.sends_per_round", "count", "lower", 0},
	{"transport.send_busy_us_per_round", "us", "lower", 0},
	{"transport.send_errors_per_op", "count", "lower", 0},
	{"transport.wire_bytes_per_round", "B", "lower", 0},
	{"transport.chaos_drop_share", "ratio", "lower", 0},
	{"node.rounds_per_s", "1/s", "higher", 0},
	{"node.deliveries_per_round", "count", "lower", 0},
	{"node.resends_per_round", "count", "lower", 0},
	{"node.useful_delivery_ratio", "ratio", "higher", 0},
	{"node.abandoned_per_op", "count", "lower", 0},
	{"node.outdropped_per_op", "count", "lower", 0},
	{"node.round_gap_p50_us", "us", "lower", 0},
	{"node.round_gap_p99_us", "us", "lower", 0},
	{"node.overhead_vs_async", "x", "lower", 0},
	{"node.alloc_kb_per_round", "kB", "lower", 0},
	{"msgs_per_round", "count", "lower", 0},
	{"condition.scan_ms", "ms", "lower", 0},
	{"condition.candidates_per_s", "1/s", "higher", 0},
	{"condition.pruned_share", "ratio", "higher", 0},
	{"condition.memo_hits_per_op", "count", "higher", 0},
	{"condition.worker_speedup", "x", "higher", 0},
	{"condition.allocs_per_op", "count", "lower", 0},
	{"condition.reconcile_ratio", "ratio", "lower", 0},
	{"nodeset.subsets_per_s", "1/s", "higher", 0},
	{"nodeset.enum_share", "ratio", "lower", 0},
	{"statestore.writes_per_op", "count", "lower", 0},
	{"statestore.reads_per_op", "count", "lower", 0},
	{"statestore.write_p50_us", "us", "lower", 0},
	{"statestore.write_p99_us", "us", "lower", 0},
	{"statestore.write_bytes_per_op", "B", "lower", 0},
	{"statestore.busy_share", "ratio", "lower", 0},
	{"statestore.dir_ms_per_op", "ms", "lower", 0},
	{"distrib.jobs_per_op", "count", "lower", 0},
	{"distrib.steals_per_op", "count", "lower", 0},
	{"distrib.requeues_per_op", "count", "lower", 0},
	{"distrib.stale_reports_per_op", "count", "lower", 0},
	{"distrib.dispatch_us", "us", "lower", 0},
	{"distrib.dispatch_allocs_per_job", "count", "lower", 0},
	{"distrib.overhead_ratio", "x", "lower", 0},
	{"distrib.worker_speedup", "x", "higher", 0},
	{"graph.build_ms", "ms", "lower", 0},
	{"graph.encode_us", "us", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "x", "lower", 0},
	{"fail_share", "ratio", "lower", 0},
}

// workerSpeedups are printed as n/a on a host with one CPU, where they are
// 1 by construction and would read as a finding.
var workerSpeedups = map[string]bool{
	"sim.worker_speedup": true, "condition.worker_speedup": true, "distrib.worker_speedup": true,
}
