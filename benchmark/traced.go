package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"dnnfusion"
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/rewrite"
	"dnnfusion/internal/tensor"
	"dnnfusion/internal/tuner"
)

// The traced pass gives shareStages of its seconds to replaying the load and
// splits shareLoops evenly over its timed loops, which take turns
// tracedRounds times over so that differences between loops compare slices
// taken seconds, not a whole pass, apart.
const (
	shareStages  = 0.05
	shareLoops   = 0.85
	tracedRounds = 5
)

// stageTimes collects one duration per replayed load, by per-layer metric,
// each divided by the slowness measured before that replay (calib.go).
type stageTimes struct {
	by float64
	ms map[string][]float64
}

func (s *stageTimes) add(metric string, d time.Duration) {
	s.ms[metric] = append(s.ms[metric], toMs(d)/s.by)
}

// stageFacts are the counts one replayed load yields; they repeat exactly.
type stageFacts struct {
	applied, opsAfter       int
	kernels, chains, tasks  int
	irsBytes                int64
	arenaSlots              int
	exec                    *engine.Executor
	compiledGraph, original *graph.Graph
}

// replayLoad runs the pipeline stage by stage with the same public calls
// core.Compile makes, each inside a span, so load_ms can be attributed to a
// module. It compiles for one lane with no device, profile database or
// kernel cache, exactly like load.
func replayLoad(tr *tracer, rep int, onnx []byte, times *stageTimes) (*stageFacts, error) {
	root := tr.open("load", -1, rep)
	defer tr.close(root)
	f := &stageFacts{}
	var err error

	times.add("onnx.import_ms", tr.call("onnx.Import", root, rep, func() { f.original, err = dnnfusion.Import(onnx) }))
	if err != nil {
		return nil, err
	}
	var e *ecg.ECG
	times.add("ecg.build_ms", tr.call("ecg.Build", root, rep, func() { e = ecg.Build(f.original.Clone()) }))

	var st rewrite.Stats
	times.add("rewrite.run_ms", tr.call("rewrite.Engine.Run", root, rep, func() { st, err = rewrite.NewDefaultEngine().Run(e) }))
	if err != nil {
		return nil, err
	}
	f.applied, f.opsAfter = st.Applied, len(e.G.Nodes)

	var plan *fusion.Plan
	planning := tr.open("fusion.plan", root, rep)
	planStart := time.Now()
	tr.call("fusion.GeneratePlan", planning, rep, func() { plan = fusion.GeneratePlan(e, fusion.Options{}) })
	tr.call("fusion.FuseChains", planning, rep, func() { fusion.FuseChains(e, plan, fusion.Options{}) })
	tr.call("fusion.Plan.MarkRemovable", planning, rep, func() { plan.MarkRemovable(e) })
	times.add("fusion.plan_ms", time.Since(planStart))
	tr.close(planning)
	f.kernels, f.chains, f.irsBytes = len(plan.Blocks), plan.ChainFusions, plan.IRSBytesAfter()

	var kernels []*codegen.Kernel
	times.add("codegen.compile_ms", tr.call("codegen.CompilePlan", root, rep, func() { kernels, err = codegen.CompilePlan(e, plan, nil) }))
	if err != nil {
		return nil, err
	}

	tuning := tr.open("tuner.select", root, rep)
	tuneStart := time.Now()
	f.tasks = selectSchedules(tr, tuning, rep, kernels)
	times.add("tuner.select_ms", time.Since(tuneStart))
	tr.close(tuning)

	times.add("engine.plan_ms", tr.call("engine.NewExecutorThreads", root, rep, func() { f.exec, err = engine.NewExecutorThreads(e, plan, kernels, 1) }))
	if err != nil {
		return nil, err
	}
	f.arenaSlots = f.exec.MemPlan().NumSlots()
	f.compiledGraph = e.G
	return f, nil
}

// selectSchedules repeats core's schedule selection for a compile with no
// device and no profile database: one tuner search per schedulable kernel,
// against the host stand-in profile. It returns how many searches ran.
func selectSchedules(tr *tracer, parent, rep int, kernels []*codegen.Kernel) int {
	dev := dnnfusion.SnapdragonCPU()
	tasks := 0
	for _, k := range kernels {
		if pm, pn, pk, cm, cn, ck, ok := k.ChainScheduleTasks(); ok {
			tasks++
			tr.call("tuner.SelectChain", parent, rep, func() {
				res := tuner.SelectChain(tuner.Task{M: pm, N: pn, K: pk, Device: dev}, tuner.Task{M: cm, N: cn, K: ck, Device: dev})
				k.TaskM, k.TaskN, k.TaskK = cm, cn, ck
				k.Schedule, k.ProducerSchedule = res.Consumer, res.Producer
			})
			continue
		}
		if m, n, kk, ok := k.ScheduleTask(); ok {
			tasks++
			tr.call("tuner.Select", parent, rep, func() {
				k.TaskM, k.TaskN, k.TaskK = m, n, kk
				k.Schedule = tuner.Select(tuner.Task{M: m, N: n, K: kk, Device: dev}, tuner.GAOptions{}).Schedule
			})
		}
	}
	return tasks
}

// checkReplay binds the replayed executor (engine.bind_ms) and runs it once
// against the interpreter, so the stage timings are known to describe a
// pipeline that produces the right answer.
func checkReplay(tr *tracer, f *stageFacts, gen *generated, t *tally) (time.Duration, error) {
	sess := f.exec.NewSession()
	defer sess.Release()
	var err error
	bind := tr.call("engine.Session.Warm", -1, 0, func() { err = sess.Warm() })
	if err != nil {
		return 0, err
	}
	feeds := make(map[*graph.Value]*tensor.Tensor, len(f.compiledGraph.Inputs))
	for _, in := range f.compiledGraph.Inputs {
		feeds[in] = gen.inputs[0][in.Name]
	}
	outs, err := sess.Run(context.Background(), feeds)
	if err != nil {
		return 0, err
	}
	ok := len(outs) == len(f.original.Outputs)
	for i := 0; ok && i < len(outs); i++ {
		want := gen.refs[0][gen.graph.Outputs[i].Name]
		ok = want != nil && tensor.AllClose(outs[i], want, tolerance)
	}
	if ok {
		t.ok()
	} else {
		t.fail("%s: replayed pipeline differs from the interpreter", gen.graph.Name)
	}
	return bind, nil
}

// traceLoad replays the load stage by stage for shareStages of the pass, at
// least three times, checks that the replay still mirrors dnnfusion.Compile
// and gives the interpreter's outputs, and reports each stage's median and
// the counts the stages yield.
func traceLoad(tr *tracer, e *env, seconds float64, res *passResult, t *tally) (*stageFacts, error) {
	gen, name := e.gen, e.w.name
	times := &stageTimes{ms: map[string][]float64{}}
	var facts *stageFacts
	var err error
	budget := time.Duration(shareStages * seconds * float64(time.Second))
	for rep, t0 := 0, time.Now(); rep < 3 || time.Since(t0) < budget; rep++ {
		times.by = slowness()
		if facts, err = replayLoad(tr, rep, gen.onnx, times); err != nil {
			return nil, fmt.Errorf("%s: replaying the load: %w", name, err)
		}
	}
	if facts.kernels != e.model.FusedLayerCount() {
		return nil, fmt.Errorf("%s: the replayed pipeline makes %d kernels, dnnfusion.Compile %d: the replay no longer mirrors core.Compile", name, facts.kernels, e.model.FusedLayerCount())
	}
	by := slowness()
	bind, err := checkReplay(tr, facts, gen, t)
	if err != nil {
		return nil, fmt.Errorf("%s: running the replayed pipeline: %w", name, err)
	}
	for metric, samples := range times.ms {
		res.Metrics[metric] = metricValue{Value: median(samples), Unit: "ms", Samples: len(samples)}
	}
	opsImported := len(facts.original.Nodes)
	res.Info["ops_built"] = float64(len(gen.graph.Nodes))
	res.Info["ops_imported"] = float64(opsImported)
	res.set("onnx.model_kb", "KiB", float64(len(gen.onnx))/1024)
	res.set("engine.bind_ms", "ms", toMs(bind)/by)
	res.set("rewrite.applied", "count", float64(facts.applied))
	res.set("rewrite.ops_after", "count", float64(facts.opsAfter))
	res.set("fusion.kernels", "count", float64(facts.kernels))
	res.set("fusion.rate", "ops/kernel", float64(opsImported)/float64(facts.kernels))
	res.set("fusion.chains", "count", float64(facts.chains))
	res.set("fusion.irs_kb", "KiB", float64(facts.irsBytes)/1024)
	res.set("tuner.tasks", "count", float64(facts.tasks))
	res.set("engine.arena_slots", "count", float64(facts.arenaSlots))
	return facts, nil
}

// optionRunner loads the workload under the given compile options and
// returns a warmed runner.
func optionRunner(gen *generated, opts ...dnnfusion.Option) (*dnnfusion.Runner, error) {
	g, err := dnnfusion.Import(gen.onnx)
	if err != nil {
		return nil, err
	}
	m, err := dnnfusion.Compile(g, opts...)
	if err != nil {
		return nil, err
	}
	r := m.NewRunner()
	if _, err := r.Run(context.Background(), gen.inputs[0]); err != nil {
		return nil, err
	}
	return r, nil
}

// ratio is num/den, and 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// allocsPer counts heap allocations, process-wide, per call of op over n
// calls made back to back from this goroutine.
func allocsPer(n int, op func(i int) error) (float64, error) {
	runtime.GC()
	before := mallocs()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-before) / float64(n), nil
}

// callsIn is how many calls of meanMs each fit into d, between 2 and 500.
func callsIn(d time.Duration, meanMs float64) int {
	return min(max(int(toMs(d)/meanMs), 2), 500)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// classRank orders kernel classes by how heavy their operator is.
var classRank = map[string]int{"movement": 0, "pointwise": 1, "reduce": 2, "matmul": 3, "conv": 4}

// kernelClass names the layer of ops a scheduled kernel belongs to, by its
// heaviest operator: a chain kernel, then convolution, then matmul, then a
// reduction, then pure data movement, else pointwise.
func kernelClass(k *codegen.Kernel) string {
	if k.Block.Chain != nil {
		return "chain"
	}
	class := "movement"
	for _, n := range k.Block.Nodes {
		c := "pointwise"
		switch n.Op.Type() {
		case "Conv", "ConvTranspose":
			c = "conv"
		case "MatMul", "Gemm", "Einsum":
			c = "matmul"
		case "Softmax", "LogSoftmax", "ReduceSum", "ReduceMean", "ReduceMax", "ReduceMin", "ReduceProd",
			"MaxPool", "AveragePool", "GlobalAveragePool", "CumSum":
			c = "reduce"
		case "Reshape", "Transpose", "Flatten", "Squeeze", "Unsqueeze", "Slice", "Split", "Concat",
			"Expand", "Gather", "Identity", "Cast", "DepthToSpace", "SpaceToDepth", "Resize", "Upsample":
			c = "movement"
		}
		if classRank[c] > classRank[class] {
			class = c
		}
	}
	return class
}

// kernelMeans is each scheduled kernel's mean time per run, in ms, between
// two Profile snapshots.
func kernelMeans(before, after []dnnfusion.KernelProfile) []float64 {
	means := make([]float64, len(after))
	for i := range after {
		if runs := after[i].Runs - before[i].Runs; runs > 0 {
			means[i] = float64(after[i].TotalNs-before[i].TotalNs) / float64(runs) / 1e6
		}
	}
	return means
}

// opsMetrics joins per-kernel mean times with each scheduled kernel's op
// list, FLOPs and block input+output bytes, and returns the summed kernel
// time of one inference. Bytes are computed from tensor sizes, not measured.
func opsMetrics(res *passResult, means []float64, kernels []*codegen.Kernel) (sumMs float64) {
	classMs := map[string]float64{}
	classFLOPs := map[string]float64{}
	var topMs, bytesMoved, pointwiseElems float64
	for i, k := range kernels {
		class := kernelClass(k)
		classMs[class] += means[i]
		classFLOPs[class] += float64(k.FLOPs)
		sumMs += means[i]
		topMs = max(topMs, means[i])
		for _, v := range k.Block.Inputs() {
			bytesMoved += float64(v.Shape.Bytes())
		}
		for _, v := range k.Block.Outputs() {
			bytesMoved += float64(v.Shape.Bytes())
			if class == "pointwise" {
				pointwiseElems += float64(v.Shape.NumElements())
			}
		}
	}
	for _, class := range []string{"conv", "matmul", "chain", "pointwise", "reduce", "movement"} {
		res.set("ops."+class+"_ms", "ms", classMs[class])
	}
	// A kernel class the workload does not have reads 0 throughout.
	res.set("ops.conv_gflops", "GFLOP/s", ratio(classFLOPs["conv"], classMs["conv"]*1e6))
	res.set("ops.matmul_gflops", "GFLOP/s", ratio(classFLOPs["matmul"], classMs["matmul"]*1e6))
	res.set("ops.pointwise_ns_per_elem", "ns", ratio(classMs["pointwise"]*1e6, pointwiseElems))
	res.set("ops.top_kernel_share", "%", ratio(100*topMs, sumMs))
	res.set("ops.gbytes_per_s", "GB/s", ratio(bytesMoved, sumMs*1e6))
	return sumMs
}

// memWriter is an in-memory http.ResponseWriter: the handler level of the
// nested serve timings runs Server.ServeHTTP with no socket underneath.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.status = code }

// tracedPass attributes the end-to-end numbers to modules. It replays the
// load stage by stage; then, taking turns, it times the library under the
// fusion ablations, a profiled runner for the per-kernel join, and the same
// request from three depths of the serving stack — loopback HTTP ⊃
// Server.ServeHTTP into memory ⊃ Host.Run ⊃ Runner.Run. Every timed call is
// a span, written to outDir when the pass ends.
func tracedPass(w workload, seed uint64, seconds float64, rounds int, outDir string) (*passResult, error) {
	res := &passResult{Workload: w.name, Metrics: map[string]metricValue{}, Info: map[string]float64{}}
	tr := newTracer()
	var t tally
	ctx := context.Background()

	e, err := prepare(w, seed, &t)
	if err != nil {
		return nil, err
	}
	gen := e.gen
	facts, err := traceLoad(tr, e, seconds, res, &t)
	if err != nil {
		return nil, err
	}

	// The server runs for the rest of the pass; library loops disarm the
	// profiling its registry arms, except the one that wants it.
	srv, err := e.startServer(&t)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	// library is a loop timing one runner.
	library := func(r *dnnfusion.Runner, spanName string) func(time.Duration) (*window, tally) {
		return func(d time.Duration) (*window, tally) { return inferLoop(r, gen, d, 1, tr, spanName) }
	}
	one := dnnfusion.WithThreads(1)
	base := &phase{run: unarmed(library(e.runner, "Runner.Run"))}
	phases := []*phase{base}

	unfusedRunner, err := optionRunner(gen, one, dnnfusion.WithoutFusion(), dnnfusion.WithoutRewrite())
	if err != nil {
		return nil, err
	}
	unfused := &phase{run: unarmed(library(unfusedRunner, "Runner.Run unfused"))}
	phases = append(phases, unfused)

	var nochain, threads, batch8 *phase
	if facts.chains > 0 {
		r, err := optionRunner(gen, one, dnnfusion.WithoutChainFusion())
		if err != nil {
			return nil, err
		}
		nochain = &phase{run: unarmed(library(r, "Runner.Run nochain"))}
		phases = append(phases, nochain)
	}
	// Default threads against one lane: not faked on a one-core box.
	if runtime.GOMAXPROCS(0) >= 2 {
		r, err := optionRunner(gen)
		if err != nil {
			return nil, err
		}
		threads = &phase{run: unarmed(library(r, "Runner.Run threads"))}
		phases = append(phases, threads)
	}
	// One coalesced batch of eight against eight single runs.
	switch bm, err := e.model.CompileBatch(8); {
	case err == nil:
		br := bm.NewRunner()
		defer br.Release()
		reqs := make([]map[string]*dnnfusion.Tensor, 8)
		for i := range reqs {
			reqs[i] = gen.inputs[i%len(gen.inputs)]
		}
		batch8 = &phase{run: unarmed(func(d time.Duration) (*window, tally) {
			return closedLoop(1, d, tr, "BatchRunner.RunBatch", func(_, _ int) error {
				_, err := br.RunBatch(ctx, reqs)
				return err
			})
		})}
		phases = append(phases, batch8)
	case !errors.Is(err, dnnfusion.ErrNotBatchable):
		return nil, fmt.Errorf("%s: CompileBatch: %w", w.name, err)
	}

	// A second load of the same model, run only while armed, so its profile
	// holds nothing but this loop.
	profiled, err := load(gen.onnx)
	if err != nil {
		return nil, err
	}
	profiledRunner := profiled.NewRunner()
	defer profiledRunner.Release()
	if _, err := profiledRunner.Run(ctx, gen.inputs[0]); err != nil {
		return nil, err
	}
	profileBefore := profiled.Profile()
	armed := &phase{run: library(profiledRunner, "Runner.Run profiled")}

	path := fmt.Sprintf("/v1/models/%s:predict", w.name)
	writers := make([]memWriter, w.clients)
	viaHandler := func(c, n int) error {
		mw := &writers[c]
		mw.header, mw.status = http.Header{}, http.StatusOK
		mw.body.Reset()
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(e.bodies[(c+n)%len(e.bodies)]))
		if err != nil {
			return err
		}
		srv.handler.ServeHTTP(mw, req)
		if mw.status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", mw.status, mw.body.Bytes())
		}
		return nil
	}
	// Timelines are read per client and summed after the loops.
	type waits struct{ queueNs, formNs, n int64 }
	waited := make([]waits, w.clients)
	respBytes := 0
	overHTTP := &phase{run: func(d time.Duration) (*window, tally) {
		win, ht, n := srv.drive(e, d, tr)
		respBytes = max(respBytes, n)
		return win, ht
	}}
	handler := &phase{run: func(d time.Duration) (*window, tally) {
		return closedLoop(w.clients, d, tr, "serve.Server.ServeHTTP", viaHandler)
	}}
	host := &phase{run: func(d time.Duration) (*window, tally) {
		return closedLoop(w.clients, d, tr, "serve.Host.Run", func(c, n int) error {
			r, err := srv.host.Run(ctx, gen.inputs[(c+n)%len(gen.inputs)])
			if err != nil {
				return err
			}
			tl := r.Timeline()
			r.Release()
			waited[c].queueNs += tl.QueueWaitNs
			waited[c].formNs += tl.BatchFormNs
			waited[c].n++
			return nil
		})
	}}
	phases = append(phases, armed, overHTTP, handler, host)
	for _, p := range phases {
		p.share = shareLoops / float64(len(phases))
	}
	takeTurns(rounds, seconds, phases, &t)

	baseP50 := median(base.p50)
	res.Info["infer_ms_p50"] = baseP50
	res.set("fusion.unfused_ms_p50", "ms", median(unfused.p50))
	res.set("fusion.speedup", "x", median(unfused.p50)/baseP50)
	res.set("fusion.nochain_ms_p50", "ms", notApplicable)
	if nochain != nil {
		res.set("fusion.nochain_ms_p50", "ms", median(nochain.p50))
	}
	res.set("engine.mt_ms_p50", "ms", notApplicable)
	res.set("engine.mt_speedup", "x", notApplicable)
	if threads != nil {
		res.set("engine.mt_ms_p50", "ms", median(threads.p50))
		res.set("engine.mt_speedup", "x", baseP50/median(threads.p50))
	}
	res.set("engine.batch8_us_per_req", "us", notApplicable)
	if batch8 != nil {
		res.set("engine.batch8_us_per_req", "us", 1000*median(batch8.p50)/8)
	}

	// Means, not medians, on both sides: the kernel figures are means. The
	// library timed the kernels, so they are wall time; they are divided by
	// the mean slowness of the loop they ran in.
	armedP50 := median(armed.p50)
	means := kernelMeans(profileBefore, profiled.Profile())
	for i := range means {
		means[i] *= armed.sumMs / armed.rawSumMs
	}
	kernelSumMs := opsMetrics(res, means, profiled.ScheduledKernels())
	res.set("engine.dispatch_us", "us", 1000*(armed.sumMs/float64(armed.samples)-kernelSumMs))
	res.set("obs.trace_overhead_pct", "%", 100*(armedP50-baseP50)/baseP50)

	var wait waits
	for _, c := range waited {
		wait.queueNs += c.queueNs
		wait.formNs += c.formNs
		wait.n += c.n
	}
	info, err := srv.host.Info()
	if err != nil {
		return nil, err
	}
	httpP50, handlerP50, hostP50 := median(overHTTP.p50), median(handler.p50), median(host.p50)
	res.Info["http_ms_p50"] = httpP50
	res.set("serve.handler_us_p50", "us", 1000*handlerP50)
	res.set("serve.host_us_p50", "us", 1000*hostP50)
	res.set("serve.transport_us", "us", 1000*(httpP50-handlerP50))
	res.set("serve.codec_us", "us", 1000*(handlerP50-hostP50))
	res.set("serve.dispatch_us", "us", 1000*(hostP50-armedP50))
	res.set("serve.queue_wait_us", "us", float64(wait.queueNs)/float64(max(wait.n, 1))/1000)
	res.set("serve.batch_form_us", "us", float64(wait.formNs)/float64(max(wait.n, 1))/1000)
	res.set("serve.batch_mean", "count", info.Stats.MeanBatch)
	res.set("serve.req_kb", "KiB", float64(len(e.bodies[0]))/1024)
	res.set("serve.resp_kb", "KiB", float64(respBytes)/1024)
	res.set("serve.shed", "count", float64(info.Stats.Shed))
	res.Metrics["serve.http_ms_p99"] = overHTTP.metric(overHTTP.p99, 99)

	// Allocations, counted process-wide over short untraced runs of calls.
	// The handler figure includes the benchmark's own request and header.
	slice := time.Duration(base.share * seconds / float64(rounds) * float64(time.Second))
	dnnfusion.DisableProfiling()
	allocs, err := allocsPer(callsIn(slice, baseP50), func(i int) error {
		_, err := e.runner.Run(ctx, gen.inputs[i%len(gen.inputs)])
		return err
	})
	dnnfusion.EnableProfiling()
	if err != nil {
		return nil, err
	}
	res.set("engine.allocs_per_run", "count", allocs)
	if allocs, err = allocsPer(callsIn(slice, handlerP50), func(i int) error { return viaHandler(0, i) }); err != nil {
		return nil, err
	}
	res.set("serve.allocs_per_req", "count", allocs)

	// Drift monitors: the cost model and the numerics.
	report, err := e.model.Simulate(dnnfusion.SnapdragonCPU())
	if err != nil {
		return nil, err
	}
	res.set("device.sim_cpu_ms", "ms", report.LatencyMs)
	maxErr := 0.0
	for i, in := range gen.inputs {
		out, err := e.runner.Run(ctx, in)
		if err != nil {
			t.fail("%s: Runner.Run: %v", w.name, err)
			continue
		}
		t.ok()
		for name, want := range gen.refs[i] {
			if got := out[name]; got != nil && got.Shape().Equal(want.Shape()) {
				maxErr = max(maxErr, tensor.MaxAbsDiff(got, want))
			}
		}
	}
	res.set("verify.max_abs_err", "abs", maxErr)

	file, err := tr.write(outDir, w.name, seed)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.Info["spans"] = float64(len(tr.spans))
	fmt.Printf("  spans: %s\n", file)
	res.tally(t)
	return res, nil
}
