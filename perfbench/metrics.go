package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step. Every run
// prints every metric of its kind, whatever the workload: a per-layer
// metric of a layer the workload does not use reads 0.

// endToEnd lists the metrics a --trace 0 run prints.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
	{"max_rss_mb", "MB"},
}

// tracedLayers are the packages the benchmark opens spans in; each gets
// a <layer>.self_ms per-layer metric.
var tracedLayers = []string{
	"experiments", "workloads", "machine", "rapl", "qthreads", "rcr", "maestro", "cluster", "resilience",
}

// perLayer lists the metrics a --trace 1 run prints besides the
// <layer>.self_ms family.
var perLayer = []struct{ name, unit string }{
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.cell_ms_max", "ms"},
	{"workloads.prepare_ms", "ms"},
	{"workloads.run_ms", "ms"},
	{"machine.setup_ms", "ms"},
	{"machine.steps", "count"},
	{"machine.virtual_s", "s"},
	{"machine.sim_rate", "s/s"},
	{"qthreads.tasks", "count"},
	{"qthreads.steals", "count"},
	{"qthreads.steal_misses", "count"},
	{"qthreads.throttle_park_ms", "ms"},
	{"rcr.sampler_ticks", "count"},
	{"rcr.bb_writes", "count"},
	{"rcr.bb_reads", "count"},
	{"maestro.polls", "count"},
	{"maestro.activations", "count"},
	{"maestro.transitions", "count"},
	{"telemetry.journal_records", "count"},
	{"rcr.snapshot_ns", "ns"},
	{"rcr.encode_ns", "ns"},
	{"rcr.decode_ns", "ns"},
	{"rcr.query_allocs", "count"},
	{"rcr.ipc_requests", "count"},
	{"rcr.ipc_errors", "count"},
	{"rcr.tick_us", "us"},
	{"rcr.push_p50_us", "us"},
	{"rcr.delta_bytes", "bytes"},
	{"rcr.sub_frames", "count"},
	{"rcr.sub_dropped_frames", "count"},
	{"rcr.sub_resyncs", "count"},
	{"cluster.partition_us", "us"},
	{"cluster.repartitions", "count"},
	{"cluster.fence_grants", "count"},
	{"cluster.fence_rejects", "count"},
	{"cluster.member_epochs", "count"},
	{"cluster.settle_polls", "polls"},
	{"rcr.fence_offer_us", "us"},
	{"resilience.sub_frames", "count"},
	{"trace.overhead_s", "s"},
}

// layerMetrics returns every per-layer metric (self times included) at
// zero, ready for a workload to fill in the layers it uses.
func layerMetrics() map[string]metric {
	m := make(map[string]metric, len(perLayer)+len(tracedLayers))
	for _, p := range perLayer {
		m[p.name] = metric{0, p.unit}
	}
	for _, l := range tracedLayers {
		m[l+".self_ms"] = metric{0, "ms"}
	}
	return m
}

// set stores a value under a catalogued name, keeping its unit; an
// uncatalogued name is a bug in the benchmark.
func set(m map[string]metric, name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	m[name] = metric{v, old.Unit}
}
