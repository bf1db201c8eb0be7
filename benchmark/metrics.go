package main

import (
	"encoding/json"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json repeats these tables;
// TestManifestMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the library or the server sees. Bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression. Every timing has the widest bound allowed:
// on the two-core box this was written on, another tenant slows CPU-bound
// loops by 25-50% for minutes at a time; calibrated (calib.go), ten runs
// still spread up to 7% while that lasts (see README, Noise). peak_arena_kb
// is an exact count; its bound is above zero only because a bound must be.
// The library's p90 and the server's p99 are printed beside these but not
// bounded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"load_ms", "ms", "lower", 0.25},
	{"infer_ms_p50", "ms", "lower", 0.25},
	{"peak_arena_kb", "KiB", "lower", 0.01},
	{"http_ms_p50", "ms", "lower", 0.25},
	{"http_ms_p90", "ms", "lower", 0.25},
	{"http_rps", "1/s", "higher", 0.25},
}

// perLayer comes from the traced pass; the name's prefix is the module.
// These have no bound: they say where an end-to-end number came from.
var perLayer = []metricDef{
	{Name: "onnx.import_ms", Unit: "ms", Better: "lower"},
	{Name: "onnx.model_kb", Unit: "KiB", Better: "lower"},
	{Name: "ecg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "rewrite.run_ms", Unit: "ms", Better: "lower"},
	{Name: "rewrite.applied", Unit: "count", Better: "higher"},
	{Name: "rewrite.ops_after", Unit: "count", Better: "lower"},
	{Name: "fusion.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "fusion.kernels", Unit: "count", Better: "lower"},
	{Name: "fusion.rate", Unit: "ops/kernel", Better: "higher"},
	{Name: "fusion.chains", Unit: "count", Better: "higher"},
	{Name: "fusion.irs_kb", Unit: "KiB", Better: "lower"},
	{Name: "fusion.unfused_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fusion.nochain_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fusion.speedup", Unit: "x", Better: "higher"},
	{Name: "codegen.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "tuner.select_ms", Unit: "ms", Better: "lower"},
	{Name: "tuner.tasks", Unit: "count", Better: "lower"},
	{Name: "engine.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.arena_slots", Unit: "count", Better: "lower"},
	{Name: "engine.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "engine.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "engine.mt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.mt_speedup", Unit: "x", Better: "higher"},
	{Name: "engine.batch8_us_per_req", Unit: "us", Better: "lower"},
	{Name: "ops.conv_ms", Unit: "ms", Better: "lower"},
	{Name: "ops.conv_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "ops.matmul_ms", Unit: "ms", Better: "lower"},
	{Name: "ops.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "ops.chain_ms", Unit: "ms", Better: "lower"},
	{Name: "ops.pointwise_ms", Unit: "ms", Better: "lower"},
	{Name: "ops.pointwise_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ops.reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "ops.movement_ms", Unit: "ms", Better: "lower"},
	{Name: "ops.top_kernel_share", Unit: "%", Better: "lower"},
	{Name: "ops.gbytes_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "serve.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.host_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.codec_us", Unit: "us", Better: "lower"},
	{Name: "serve.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_form_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.req_kb", Unit: "KiB", Better: "lower"},
	{Name: "serve.resp_kb", Unit: "KiB", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.http_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "device.sim_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.max_abs_err", Unit: "abs", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// notApplicable marks a per-layer metric the workload or the box cannot
// produce (no chain to switch off, one core, a graph that does not batch).
// It prints as n/a and is null in the results file; the one-line result
// carries 0 for it, because that line must hold a number for every metric.
var notApplicable = math.NaN()

// metricValue is one measured number with the evidence behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many timed operations the value summarises (0 for a
	// count or a derived figure).
	Samples int `json:"samples,omitempty"`
	// LowSamples flags a percentile with fewer than ten samples beyond it.
	LowSamples bool `json:"low_samples,omitempty"`
}

// MarshalJSON writes a not-applicable value as null.
func (m metricValue) MarshalJSON() ([]byte, error) {
	type plain metricValue
	if math.IsNaN(m.Value) {
		return json.Marshal(struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}{nil, m.Unit})
	}
	return json.Marshal(plain(m))
}
