package main

// metricDef names one reported metric. BENCHMARK.json at the root of
// the repository lists the same names and units (metrics_test.go keeps
// the two in step); README.md maps each per-layer metric to the
// end-to-end metric and workload it should move.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the simulator sees, reported from
// untraced runs (--trace 0) as the median over the repetitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"total_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported from the traced
// run (--trace 1). A layer the workload does not load reports 0.
var perLayer = []metricDef{
	{"fleet.cold_build_s", "s", "lower"},
	{"fleet.warm_restore_s", "s", "lower"},
	{"pimaster.install_s", "s", "lower"},
	{"scenario.slice_p50_s", "s", "lower"},
	{"scenario.slice_p90_s", "s", "lower"},
	{"sim.events_fired", "count", "lower"},
	{"sim.events_scheduled", "count", "lower"},
	{"sim.tombstones", "count", "lower"},
	{"sim.reshapes", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sdn.route_cache_hits", "count", "higher"},
	{"sdn.route_cache_misses", "count", "lower"},
	{"sdn.route_cache_evictions", "count", "lower"},
	{"sdn.cache_hit_ratio", "ratio", "higher"},
	{"sdn.synth_hits.same-edge", "count", "higher"},
	{"sdn.synth_hits.adjacent", "count", "higher"},
	{"sdn.synth_hits.one-mid", "count", "higher"},
	{"sdn.synth_hits.cross-pod", "count", "higher"},
	{"sdn.synth_ratio", "ratio", "higher"},
	{"sdn.dijkstra_fallbacks", "count", "lower"},
	{"sdn.packet_ins", "count", "lower"},
	{"sdn.rules_installed", "count", "lower"},
	{"sdn.pathfor_cold_us", "us", "lower"},
	{"sdn.pathfor_warm_us", "us", "lower"},
	{"openflow.lookups", "count", "lower"},
	{"openflow.misses", "count", "lower"},
	{"openflow.evictions", "count", "lower"},
	{"netsim.flushes", "count", "lower"},
	{"netsim.domains_solved", "count", "lower"},
	{"netsim.parallel_flushes", "count", "higher"},
	{"netsim.flows_committed", "count", "lower"},
	{"netsim.flows_rescheduled", "count", "lower"},
	{"netsim.flush_wall_s", "s", "lower"},
	{"netsim.solve_wall_s", "s", "lower"},
	{"workload.flows_done", "count", "higher"},
	{"energy.power_draw_us", "us", "lower"},
	{"core.kernel_state_s", "s", "lower"},
	{"core.fork_reenact_s", "s", "lower"},
	{"session.fork_p50_s", "s", "lower"},
	{"session.fork_p90_s", "s", "lower"},
	{"session.advance_p50_s", "s", "lower"},
	{"session.checkpoint_p50_s", "s", "lower"},
	{"session.cycles_per_s", "1/s", "higher"},
	{"session.advance_slice_p50_s", "s", "lower"},
	{"store.journal_append_p50_s", "s", "lower"},
	{"store.journal_records", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.cpu_fraction", "ratio", "lower"},
	{"gc.pause_total_s", "s", "lower"},
	{"heap.alloc_bytes", "bytes", "lower"},
	{"heap.alloc_objects", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
