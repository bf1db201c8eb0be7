// Package core wires DNNFusion's passes into the end-to-end compiler of
// Figure 1: Extended Computational Graph construction, mathematical-
// property-based graph rewriting, light-weight profile-driven fusion plan
// exploration, and fusion code generation with the intra-/inter-block
// optimizations — plus execution (numeric) and simulation (device model)
// entry points. The root dnnfusion package re-exports this as the public
// API.
package core

import (
	"time"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/rewrite"
	"dnnfusion/internal/tensor"
)

// Options selects which parts of the pipeline run; the defaults (via
// Defaults) are the full DNNFusion configuration. The Figure 7 breakdown
// toggles the individual flags.
type Options struct {
	// GraphRewrite enables the §4.2 rewriting pass.
	GraphRewrite bool
	// Fusion enables fusion plan exploration; when false every operator
	// becomes its own kernel (the paper's OurB).
	Fusion bool
	// OtherOpt enables the §4.4.2 intra-/inter-block optimizations.
	OtherOpt bool
	// ChainFusion enables the contraction-chain post-pass over the fusion
	// plan: MatMul/Gemm → (pointwise|row-softmax) → MatMul/Gemm chains
	// merge into one streaming kernel that never materializes the
	// intermediate (flash-attention-style online softmax for attention
	// chains). Requires Fusion; off in the zero Options for the Figure 7
	// partial-pipeline configurations.
	ChainFusion bool
	// Seeds selects the planner's seed policy (ablation).
	Seeds fusion.SeedPolicy
	// MaxBlockOps / MaxBlockInputs forward the planner constraints.
	MaxBlockOps    int
	MaxBlockInputs int
	// Device resolves yellow fusion decisions through the cost model;
	// nil accepts them optimistically.
	Device *device.Device
	// ProfileDB caches yellow-decision measurements across compilations.
	ProfileDB *profile.DB
	// Cache shares generated kernels across models.
	Cache *codegen.Cache
	// Quality forwards the framework kernel-quality factor to simulation.
	Quality float64
	// Threads is the CPU executor's worker-lane count for intra-kernel
	// parallelism: 0 means GOMAXPROCS, 1 disables it.
	Threads int
	// Pool, when non-nil, makes the executor borrow an existing worker
	// pool instead of owning one (Threads is then ignored). Batch-capacity
	// variants of a model compile with the base model's pool here so the
	// pair shares one set of worker lanes; the caller must keep the pool's
	// owning executor reachable (see engine.NewExecutorPool).
	Pool *engine.Pool
}

// Defaults is the full DNNFusion pipeline.
func Defaults() Options {
	return Options{GraphRewrite: true, Fusion: true, OtherOpt: true, ChainFusion: true}
}

// CompileStats reports what compilation did — the inputs to Figure 9b.
// The *Ms fields are the per-stage wall-clock timings of the pipeline
// (rewrite → fusion → codegen → schedule tuning → executor/memory
// planning), so observability layers can attribute compile cost to a
// stage.
type CompileStats struct {
	RewriteMs float64
	FusionMs  float64
	CodegenMs float64
	// TuneMs covers schedule selection (ranking + profile-DB lookups);
	// PlanMs covers executor construction: block scheduling and the arena
	// memory plan.
	TuneMs float64
	PlanMs float64
	// ProfileLookups is the number of yellow decisions; ProfileMisses is
	// how many required a fresh measurement (empty or cold database).
	ProfileLookups  int
	ProfileMisses   int
	RewriteApplied  int
	RewriteStats    rewrite.Stats
	KernelCacheHits int
	// ScheduleLookups is the number of heavy kernels whose tile schedule
	// was selected; ScheduleMisses is how many required a fresh selection
	// (the rest hit the profile database's schedule cache).
	ScheduleLookups int
	ScheduleMisses  int
	// ChainFusions is the number of contraction chains merged into
	// streaming chain kernels.
	ChainFusions int
}

// Compiled is a ready-to-run model. After Compile returns it is immutable:
// any number of goroutines may execute it concurrently through per-goroutine
// sessions (NewSession), and Simulate is safe to call concurrently as well.
type Compiled struct {
	G       *graph.Graph
	E       *ecg.ECG
	Plan    *fusion.Plan
	Kernels []*codegen.Kernel
	Opts    Options
	Stats   CompileStats

	exec *engine.Executor
}

// Compile clones g and runs the configured pipeline over the clone (the
// input graph is never mutated).
func Compile(g *graph.Graph, opts Options) (*Compiled, error) {
	work := g.Clone()
	e := ecg.Build(work)
	c := &Compiled{G: work, E: e, Opts: opts}

	if opts.GraphRewrite {
		start := time.Now()
		st, err := rewrite.NewDefaultEngine().Run(e)
		if err != nil {
			return nil, err
		}
		c.Stats.RewriteStats = st
		c.Stats.RewriteApplied = st.Applied
		c.Stats.RewriteMs = float64(time.Since(start).Microseconds()) / 1000
	}

	fopts := fusion.Options{
		Seeds:          opts.Seeds,
		MaxBlockOps:    opts.MaxBlockOps,
		MaxBlockInputs: opts.MaxBlockInputs,
	}
	if opts.Device != nil {
		fopts.Latency = c.latencyFunc()
	}
	cacheHitsBefore := 0
	if opts.Cache != nil {
		cacheHitsBefore = opts.Cache.Hits
	}
	start := time.Now()
	if opts.Fusion {
		c.Plan = fusion.GeneratePlan(e, fopts)
		if opts.ChainFusion {
			fusion.FuseChains(e, c.Plan, fopts)
		}
	} else {
		c.Plan = fusion.SingletonPlan(e)
	}
	c.Stats.FusionMs = float64(time.Since(start).Microseconds()) / 1000
	c.Stats.ChainFusions = c.Plan.ChainFusions
	c.Plan.MarkRemovable(e)
	start = time.Now()
	kernels, err := codegen.CompilePlan(e, c.Plan, opts.Cache)
	if err != nil {
		return nil, err
	}
	c.Stats.CodegenMs = float64(time.Since(start).Microseconds()) / 1000
	c.Kernels = kernels
	start = time.Now()
	c.Stats.ScheduleLookups, c.Stats.ScheduleMisses = AssignSchedules(c.Kernels, opts.scheduleDevice(), opts.ProfileDB)
	c.Stats.TuneMs = float64(time.Since(start).Microseconds()) / 1000
	if opts.Cache != nil {
		c.Stats.KernelCacheHits = opts.Cache.Hits - cacheHitsBefore
	}
	start = time.Now()
	if opts.Pool != nil {
		c.exec, err = engine.NewExecutorPool(e, c.Plan, c.Kernels, opts.Pool)
	} else {
		c.exec, err = engine.NewExecutorThreads(e, c.Plan, c.Kernels, opts.Threads)
	}
	if err != nil {
		return nil, err
	}
	c.Stats.PlanMs = float64(time.Since(start).Microseconds()) / 1000
	return c, nil
}

// SharedPool returns the executor's worker pool (nil when single-threaded)
// so a batch-capacity variant can borrow it via Options.Pool.
func (c *Compiled) SharedPool() *engine.Pool { return c.exec.Pool() }

// Profile snapshots the per-kernel execution profile accumulated across
// every session while telemetry was armed (see internal/obs).
func (c *Compiled) Profile() []engine.KernelProfile { return c.exec.Profile() }

// KernelStats exposes the executor's per-kernel accounting (aligned with
// ScheduledKernels) so serving layers can attach the latency histograms to
// their metric registries.
func (c *Compiled) KernelStats() []*engine.KernelStat { return c.exec.KernelStats() }

// ScheduledKernels returns the compiled kernels in execution order — the
// index space of KernelStats and session spans.
func (c *Compiled) ScheduledKernels() []*codegen.Kernel { return c.exec.ScheduledKernels() }

// NewSession creates an independent execution session over the compiled
// kernels. The Compiled artifact is shared and immutable; each session owns
// its per-run state (a planned arena plus bound kernels), so create one
// session per serving goroutine.
func (c *Compiled) NewSession() *engine.Session { return c.exec.NewSession() }

// PlannedPeakBytes is the activation arena size every bound session
// allocates: the peak of the compile-time liveness analysis under buffer
// reuse. It excludes weights (see G.ParamBytes) and the double-buffered
// output copies.
func (c *Compiled) PlannedPeakBytes() int64 { return c.exec.PlannedPeakBytes() }

// HasOnlineChain reports whether any compiled kernel executes an online
// (streaming-rescale) softmax contraction chain — the one path that is
// ULP-bounded against the scalar oracle instead of bit-exact. Parity
// harnesses switch from exact to ULP comparison when this is true.
func (c *Compiled) HasOnlineChain() bool {
	for _, b := range c.Plan.Blocks {
		if b.Chain != nil && b.Chain.Online {
			return true
		}
	}
	return false
}

// scheduleDevice is the device whose memory hierarchy kernel schedules
// are tuned against: the compile target when one is set, else the primary
// CPU profile standing in for the host.
func (o Options) scheduleDevice() *device.Device {
	if o.Device != nil {
		return o.Device
	}
	return device.Snapdragon865CPU()
}

// latencyFunc resolves yellow fusion decisions: profile-database lookup
// first, then a "measurement" on the device cost model (standing in for the
// paper's on-device profiling runs).
func (c *Compiled) latencyFunc() fusion.LatencyFunc {
	return func(nodes []*graph.Node) float64 {
		c.Stats.ProfileLookups++
		key := profile.KeyFor(nodes)
		if c.Opts.ProfileDB != nil {
			if ms, ok := c.Opts.ProfileDB.Lookup(key); ok {
				return ms
			}
		}
		c.Stats.ProfileMisses++
		ms := EstimateBlockLatency(c.Opts.Device, nodes)
		if c.Opts.ProfileDB != nil {
			c.Opts.ProfileDB.Insert(key, ms)
		}
		return ms
	}
}

// EstimateBlockLatency prices a hypothetical fused kernel over the node set
// without building a block: summed FLOPs, boundary traffic, heavy-op
// detection.
func EstimateBlockLatency(dev *device.Device, nodes []*graph.Node) float64 {
	inSet := make(map[*graph.Node]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	var w device.Work
	for _, n := range nodes {
		shapes := make([]tensor.Shape, len(n.Inputs))
		for i, in := range n.Inputs {
			shapes[i] = in.Shape
			if in.Producer == nil || !inSet[in.Producer] {
				w.ReadBytes += in.Shape.Bytes()
			}
		}
		w.FLOPs += n.Op.FLOPs(shapes)
		switch n.Op.Type() {
		case "Conv", "ConvTranspose", "MatMul", "Gemm", "Einsum":
			w.Heavy = true
		}
		switch n.Op.Mapping(shapes) {
		case ops.Shuffle, ops.OneToMany:
			w.Disruption++
		}
		for _, out := range n.Outputs {
			external := out.Kind == graph.Output
			for _, consumer := range out.Consumers {
				if !inSet[consumer] {
					external = true
				}
			}
			if external {
				w.WriteBytes += out.Shape.Bytes()
			}
		}
	}
	return dev.Price(w).TimeMs
}

// Simulate prices one inference on the device.
func (c *Compiled) Simulate(dev *device.Device) (*engine.Report, error) {
	return engine.Simulate(c.E, c.Plan, dev, engine.Options{
		OtherOpt: c.Opts.OtherOpt,
		Quality:  c.Opts.Quality,
		Cache:    c.Opts.Cache,
	})
}

// FusedLayerCount is the number of kernels after compilation.
func (c *Compiled) FusedLayerCount() int { return c.Plan.FusedLayerCount() }
