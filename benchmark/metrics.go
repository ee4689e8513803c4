package main

import (
	"statebench/internal/experiments"
	"statebench/internal/workloads/mapreduce"
)

// named is a metric name with its unit.
type named struct{ name, unit string }

// countMetrics are the exact work counts a workload's first traced pass
// reads from public counters (passResult.counts).
var countMetrics = []named{
	{"sim.events", "count"},
	{"payload.hits", "count"},
	{"payload.misses", "count"},
	{"payload.hit_rate", "ratio"},
	{"payload.bytes", "B"},
	{"platform.invocations", "count"},
	{"platform.gb_s", "GB-s"},
	{"cloud.txns", "count"},
	{"cloud.blob_txns", "count"},
	{"billing.stateful_txns", "count"},
	{"traffic.cold_starts", "count"},
	{"traffic.peak_backlog", "count"},
	{"traffic.peak_in_flight", "count"},
}

// perLayerMetrics lists every metric a traced run reports, in the order
// BENCHMARK.json lists them.
func perLayerMetrics() []named {
	var out []named
	for _, l := range layerNames() {
		out = append(out, named{l + ".self_s", "s"}, named{l + ".alloc_mb", "MB"})
	}
	out = append(out, named{"profile.unattributed_share", "ratio"}, named{"trace.overhead_s", "s"})
	for _, run := range experiments.Registry() {
		out = append(out, named{"experiment_s." + run.ID, "s"})
	}
	out = append(out,
		named{"core.deploy_s", "s"},
		named{"core.invoke_ms.p50", "ms"},
		named{"core.invoke_ms.p99", "ms"},
		named{"core.idle_s", "s"},
	)
	for _, impl := range mapreduce.New().ExtraImpls() {
		out = append(out, named{"core.invoke_ms.p50." + string(impl), "ms"}, named{"core.invoke_ms.p90." + string(impl), "ms"})
	}
	for _, p := range trafficProviders {
		out = append(out, named{"traffic.run_s." + p, "s"})
	}
	return append(out, countMetrics...)
}

// endToEndMetrics lists every metric an untraced run reports.
var endToEndMetrics = []named{
	{"wall_s", "s"},
	{"runs_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// payloadCounts renders payload-cache counters; hit_rate is hits over
// lookups, 0 with none.
func payloadCounts(hits, misses, bytes int64) map[string]float64 {
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return map[string]float64{
		"payload.hits":     float64(hits),
		"payload.misses":   float64(misses),
		"payload.hit_rate": rate,
		"payload.bytes":    float64(bytes),
	}
}
