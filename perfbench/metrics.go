package main

// metricDef names one printed metric. The lists below are the benchmark's
// contract: every run prints every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1), so BENCHMARK.json must list exactly these
// (TestMetricListsMatchManifest pins it).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics, measured with tracing off. Each
// is meaningful on every workload; README.md gives the per-workload unit
// of work behind throughput_per_s.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's layer metrics. A layer a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{"build.image_ms", "ms"},
	{"vm.machine_reset_us", "us"},
	{"vm.run_s", "s"},
	{"vm.run_us_p50", "us"},
	{"vm.run_us_p99", "us"},
	{"vm.sim_cycles_per_s", "1/s"},
	{"vm.sim_cycles", "count"},
	{"vm.power_failures", "count"},
	{"core.checkpoints", "count"},
	{"core.restores", "count"},
	{"core.stores_logged", "count"},
	{"core.undo_rollbacks", "count"},
	{"fleet.channel_s", "s"},
	{"fleet.gateway_s", "s"},
	{"fleet.serial_share", "ratio"},
	{"fleet.delivered_per_arrival", "ratio"},
	{"fleet.arrivals", "count"},
	{"fleet.delivered", "count"},
	{"fleet.duplicates", "count"},
	{"fleet.lost", "count"},
	{"fleet.alloc_bytes_per_device", "B"},
	{"go.gc_pause_ms", "ms"},
	{"fleet.phase.devices_s", "s"},
	{"fleet.phase.telemetry_s", "s"},
	{"obs.export_prom_ms", "ms"},
	{"obs.export_spans_ms", "ms"},
	{"obs.overhead_pct", "%"},
	{"obs.alloc_bytes_per_device", "B"},
	{"mc.sweep_s.ar", "s"},
	{"mc.sweep_s.bc", "s"},
	{"mc.sweep_s.cf", "s"},
	{"mc.sweep_s.ghm", "s"},
	{"mc.states_per_s", "1/s"},
	{"audit.overhead_ratio", "ratio"},
	{"mc.schedules", "count"},
	{"mc.cycles_explored", "count"},
	{"gate.server_ms_p50", "ms"},
	{"gate.server_ms_p99", "ms"},
	{"gate.wait_ms_p99", "ms"},
	{"gate.ack_p50_ms", "ms"},
	{"gate.ack_p99_ms", "ms"},
	{"gate.recovery_ms", "ms"},
	{"gate.fsyncs_per_batch", "ratio"},
	{"gate.request_bytes_per_frame", "B"},
	{"gate.snapshots", "count"},
	{"gate.replayed_frames", "count"},
	{"gate.disk_bytes_per_unique", "B"},
	{"gate.finalize_ms", "ms"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_s", "s"},
}
