package main

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root declares the same names, units and directions;
// TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how much worse, as a share of the parent's median, an
	// end-to-end metric may get before a change counts as a regression.
	Bound float64
}

// endToEnd is what every untraced run prints, on every workload. The
// metrics are host-side: the simulated outcomes (SLO attainment, P99,
// admission decisions) are deterministic for a seed and are checked
// exactly as correctness gates instead.
var endToEnd = []metricDef{
	// Median host seconds to build one pass's inputs and system.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median host seconds of one pass over the workload's fixed work.
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Mean over passes of a pass's peak heap size (see heapPeak).
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// cpuLayers are the internal packages that own CPU time in the traced
// run's profile. Samples in other internal packages (model, pool, obs,
// reconfig, ...) are charged to the layer that called them.
var cpuLayers = []string{
	"sim", "trace", "queue", "core", "gpu", "metrics", "cluster",
	"autoscale", "vm", "market", "controlplane", "api", "experiments",
}

// perLayer is what every traced run prints, on every workload. Layer
// counts and times come from the workload's representative cell (see
// README.md); a count for a layer the workload never reaches is 0.
var perLayer = append([]metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.shard2_speedup", Unit: "x", Better: "higher"},
	{Name: "trace.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "queue.add_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.batches", Unit: "count", Better: "lower"},
	{Name: "queue.full_frac", Unit: "frac", Better: "higher"},
	{Name: "core.place_calls", Unit: "count", Better: "lower"},
	{Name: "core.place_ns", Unit: "ns", Better: "lower"},
	{Name: "core.place_fail_frac", Unit: "frac", Better: "lower"},
	{Name: "core.geometry_calls", Unit: "count", Better: "lower"},
	{Name: "core.geometry_ns", Unit: "ns", Better: "lower"},
	{Name: "core.geometry_change_frac", Unit: "frac", Better: "lower"},
	{Name: "gpu.batches", Unit: "count", Better: "lower"},
	{Name: "gpu.rebalances", Unit: "count", Better: "lower"},
	{Name: "gpu.reconfigs", Unit: "count", Better: "lower"},
	{Name: "metrics.samples", Unit: "count", Better: "lower"},
	{Name: "metrics.add_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.percentile_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.sketch_add_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.run_s", Unit: "s", Better: "lower"},
	{Name: "cluster.dispatches", Unit: "count", Better: "lower"},
	{Name: "cluster.dropped", Unit: "count", Better: "lower"},
	{Name: "autoscale.cold_starts", Unit: "count", Better: "lower"},
	{Name: "autoscale.events", Unit: "count", Better: "lower"},
	{Name: "vm.notices", Unit: "count", Better: "lower"},
	{Name: "vm.leases", Unit: "count", Better: "lower"},
	{Name: "market.price_ticks", Unit: "count", Better: "lower"},
	{Name: "market.usd", Unit: "usd", Better: "lower"},
	{Name: "controlplane.admit_frac", Unit: "frac", Better: "higher"},
	{Name: "controlplane.shed_frac", Unit: "frac", Better: "lower"},
	{Name: "controlplane.reject_backlog_frac", Unit: "frac", Better: "lower"},
	{Name: "controlplane.reject_ratelimit_frac", Unit: "frac", Better: "lower"},
	{Name: "controlplane.replay_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "api.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_run", Unit: "count", Better: "lower"},
	{Name: "bench.tracing_overhead", Unit: "frac", Better: "lower"},
}, cpuShareDefs()...)

// cpuShareDefs declares cpu.<layer> for every cpuLayers entry plus the
// three buckets for samples outside any layer.
func cpuShareDefs() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string{}, cpuLayers...), "runtime_gc", "nethttp", "other") {
		defs = append(defs, metricDef{Name: "cpu." + l, Unit: "%", Better: "lower"})
	}
	return defs
}

// isTimeUnit reports whether a unit measures elapsed time. A traced run
// must measure every per-layer time on every workload; counts and
// shares of a layer the workload never reaches may stay 0.
func isTimeUnit(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}
