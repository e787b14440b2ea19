package main

import "pbsim/internal/analysis/rules"

// metricDef declares one reported metric. BENCHMARK.json lists the
// same names, units and directions (a test holds the two together) and
// adds each end-to-end metric's regression bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the untraced metrics, each the median over a run's reps.
// Times are host time.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},        // one campaign or sweep, set-up excluded
	{"cpu_s", "s", "lower"},         // user+sys CPU of the work, from getrusage deltas
	{"setup_s", "s", "lower"},       // generators, design, schedules; or loader and patterns
	{"peak_rss_mb", "MiB", "lower"}, // the rep process's ru_maxrss
}

// perLayer returns the traced run's metrics. A layer a workload never
// enters is measured on a smoke-sized rep of a workload that does (see
// traceLayers).
func perLayer() []metricDef {
	ms := []metricDef{
		{"runner.row_ms.p50", "ms", "lower"},
		{"runner.row_ms.p99", "ms", "lower"},
		{"runner.busy_frac", "ratio", "higher"},
		{"runner.attempts", "count", "lower"},
		{"runner.retries", "count", "lower"},
		{"runner.rows_failed", "count", "lower"},
		{"experiment.campaign_s", "s", "lower"},
		{"trace.program_ms", "ms", "lower"},
		{"trace.next_ns", "ns", "lower"},
		{"trace.skip_ns", "ns", "lower"},
		{"sim.new_us", "us", "lower"},
		{"sim.prewarm_ms", "ms", "lower"},
		{"sim.detailed_ns_per_instr", "ns", "lower"},
		{"sim.detailed_ns_per_cycle", "ns", "lower"},
		{"sim.functional_ns_per_instr", "ns", "lower"},
		{"sim.share.gen", "ratio", "lower"},
		{"sim.share.new", "ratio", "lower"},
		{"sim.share.prewarm", "ratio", "lower"},
		{"sim.share.detailed", "ratio", "lower"},
		{"sim.ipc", "instr/cycle", "higher"},
		{"cache.l1d_miss_rate", "ratio", "lower"},
		{"cache.l2_miss_rate", "ratio", "lower"},
		{"cache.dram_per_kinstr", "1/kinstr", "lower"},
		{"bpred.mispredict_rate", "ratio", "lower"},
		{"sampling.schedule_ms", "ms", "lower"},
		{"sampling.row_ms", "ms", "lower"},
		{"sampling.detailed_instr_per_row", "count", "lower"},
		{"sampling.functional_instr_per_row", "count", "lower"},
		{"sampling.regions_per_row", "count", "lower"},
		{"sampling.prewarm_share_max", "ratio", "lower"},
		{"sampling.spearman", "ratio", "higher"},
		{"sampling.cpi_err_pct", "%", "lower"},
		{"dist.create_ms", "ms", "lower"},
		{"dist.merge_ms", "ms", "lower"},
		{"dist.tail_idle_s", "s", "lower"},
		{"dist.overhead_ms_per_unit", "ms", "lower"},
		{"dist.leases_claimed", "count", "lower"},
		{"dist.leases_stolen", "count", "lower"},
		{"dist.leases_lost", "count", "lower"},
		{"dist.commits", "count", "lower"},
		{"dist.useful_ratio", "ratio", "higher"},
		{"pb.analysis_ms", "ms", "lower"},
		{"analysis.load_s", "s", "lower"},
		{"analysis.facts_s", "s", "lower"},
		{"analysis.pointsto_s", "s", "lower"},
		{"analysis.rules_wall_s", "s", "lower"},
		{"analysis.rules_seq_s", "s", "lower"},
	}
	for _, a := range rules.All() {
		ms = append(ms, metricDef{"analysis.rule_ms." + a.Name, "ms", "lower"})
	}
	return append(ms,
		metricDef{"analysis.packages", "count", "lower"},
		metricDef{"analysis.universe_packages", "count", "lower"},
		metricDef{"analysis.findings", "count", "lower"},
		metricDef{"analysis.active_findings", "count", "lower"},
		metricDef{"proc.alloc_mb", "MiB", "lower"},
		metricDef{"proc.gc_cycles", "count", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
}
