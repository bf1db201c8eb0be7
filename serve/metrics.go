package serve

import (
	"io"

	"dnnfusion"

	"dnnfusion/internal/obs"
)

// Metric wiring: every serving counter lives on the repository's
// obs.Registry — /healthz, /v1/models, and /metrics all read the same
// instruments, so the ad-hoc and Prometheus views cannot drift. Per-model
// series carry a {model} label; the engine's per-kernel histograms are
// attached (not copied) under {model, kernel, variant}, so the executor's
// own accounting and the scrape surface share one instrument.

// Help strings double as the metric documentation table in the README.
const (
	helpRequests      = "Completed Host.Run calls per model, including failed ones."
	helpErrors        = "Failed Host.Run calls per model (shed, expired, and execution errors)."
	helpShed          = "Requests rejected by a full per-model queue (the 429 path)."
	helpExpired       = "Requests whose context was done before execution (dead on arrival or dropped from the queue)."
	helpBatches       = "Executed batches per model."
	helpBatched       = "Requests coalesced into executed batches per model."
	helpRequestSecs   = "Request latency from admission to result, per model."
	helpQueueWaitSecs = "Time a request waited in the host queue before the dispatcher pulled it, per model."
	helpExecuteSecs   = "Batch execution latency (the inference itself), per model."
	helpBatchSize     = "Coalesced batch sizes, per model."
	helpBuildFails    = "Model builders that failed (import or compile errors); sticky, one per failed host."
	helpSaturated     = "Requests rejected by the registry-wide in-flight ceiling (the 503 path)."
	helpInFlight      = "Requests currently between admission and response, across all hosts."
	helpMaxInFlight   = "Registry-wide concurrent-request ceiling (0 = unlimited)."
	helpQueueDepth    = "Pending requests in the host queue, per model."
	helpQueueCap      = "Host queue capacity (admission sheds beyond it), per model."
	helpCurDelay      = "Coalescing wait currently in force (adaptive batching output), per model."
	helpDepthEwma     = "Queue-depth EWMA driving the adaptive coalescing wait, per model."
	helpCompileStage  = "Compile-pipeline stage wall time per model (stage: rewrite|fusion|codegen|plan)."
	helpKernelSecs    = "Per-kernel execution latency (variant: base|batch); advances on profiled runs."
	helpHTTPRequests  = "HTTP responses by route and status code."
	helpDecodeSecs    = "Time from the first byte of a :predict handler to its input tensors being ready (body read and decode), per model."
	helpEncodeSecs    = "Time to build a :predict response body from the output tensors, per model."
)

// init wires the host's counters and histograms onto the repository
// registry. It runs at registration (Registry.add), before any Run can
// observe the host, so the handles are never nil on the hot path.
func (s *stats) init(o *obs.Registry, model string) {
	s.requests = o.Counter("dnnf_serve_requests_total", helpRequests, "model", model)
	s.errors = o.Counter("dnnf_serve_errors_total", helpErrors, "model", model)
	s.shed = o.Counter("dnnf_serve_shed_total", helpShed, "model", model)
	s.expired = o.Counter("dnnf_serve_expired_total", helpExpired, "model", model)
	s.batches = o.Counter("dnnf_serve_batches_total", helpBatches, "model", model)
	s.batched = o.Counter("dnnf_serve_batched_requests_total", helpBatched, "model", model)
	s.latency = o.Histogram("dnnf_serve_request_seconds", helpRequestSecs, obs.LatencyBuckets, "model", model)
	s.queueWait = o.Histogram("dnnf_serve_queue_wait_seconds", helpQueueWaitSecs, obs.LatencyBuckets, "model", model)
	s.execute = o.Histogram("dnnf_serve_execute_seconds", helpExecuteSecs, obs.LatencyBuckets, "model", model)
	s.batchSize = o.Histogram("dnnf_serve_batch_size", helpBatchSize, obs.BatchBuckets, "model", model)
	s.decode = o.Histogram("dnnf_decode_seconds", helpDecodeSecs, obs.LatencyBuckets, "model", model)
	s.encode = o.Histogram("dnnf_encode_seconds", helpEncodeSecs, obs.LatencyBuckets, "model", model)
}

// registerModelMetrics publishes the built model's observability surface:
// live control-state gauges, compile-stage timings, and the executor-owned
// per-kernel latency histograms. Called at the end of Host.init, once the
// model, batch variant, and queue exist; callback gauges register last so
// a scrape can never observe a half-initialized host (the registry lock
// orders registration before any read).
func (h *Host) registerModelMetrics() {
	if h.obs == nil {
		return
	}
	st := h.model.Stats
	for _, stage := range []struct {
		name string
		ms   float64
	}{
		{"rewrite", st.RewriteMs},
		{"fusion", st.FusionMs},
		{"codegen", st.CodegenMs},
		{"plan", st.PlanMs},
	} {
		h.obs.Gauge("dnnf_compile_stage_seconds", helpCompileStage,
			"model", h.name, "stage", stage.name).Set(stage.ms / 1000)
	}
	attachKernelHists(h.obs, h.name, "base", h.model)
	if h.batch != nil {
		attachKernelHists(h.obs, h.name, "batch", h.batch.Model())
	}
	h.obs.GaugeFunc("dnnf_serve_queue_depth", helpQueueDepth,
		func() float64 { return float64(len(h.calls)) }, "model", h.name)
	h.obs.GaugeFunc("dnnf_serve_queue_capacity", helpQueueCap,
		func() float64 { return float64(h.cfg.Queue) }, "model", h.name)
	h.obs.GaugeFunc("dnnf_serve_current_max_delay_seconds", helpCurDelay,
		func() float64 { return h.curDelay().Seconds() }, "model", h.name)
	h.obs.GaugeFunc("dnnf_serve_queue_depth_ewma", helpDepthEwma,
		func() float64 { return float64(h.st.depthEwmaMilli.Load()) / 1000 }, "model", h.name)
}

// attachKernelHists attaches the model executor's per-kernel histograms to
// the registry under per-model labels. Re-registering a model (evict +
// register) replaces the series with the new executor's instruments.
func attachKernelHists(o *obs.Registry, model, variant string, m *dnnfusion.Model) {
	kernels := m.ScheduledKernels()
	for i, ks := range m.KernelStats() {
		o.Attach("dnnf_kernel_execute_seconds", helpKernelSecs, ks.Hist,
			"model", model, "kernel", kernels[i].Name, "variant", variant)
	}
}

// WritePrometheus writes every metric the repository has registered in
// Prometheus text exposition format (0.0.4) — the body of the Server's
// /metrics endpoint.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.obs.WritePrometheus(w) }
