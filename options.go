package dnnfusion

import (
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/core"
	"dnnfusion/internal/fusion"
)

// Option configures Compile. The zero configuration (no options) is the
// full DNNFusion pipeline — graph rewriting, profile-driven fusion, and the
// intra-/inter-block optimizations — so options only ever *narrow* or
// *parameterize* it: ablations switch passes off, deployments plug in a
// device profile, a profiling database, or a shared kernel cache.
type Option func(*core.Options)

// WithDevice resolves yellow fusion decisions against the device's cost
// model (§4.3) instead of accepting them optimistically.
func WithDevice(d *Device) Option { return func(o *core.Options) { o.Device = d } }

// WithProfileDB caches yellow-decision measurements across compilations,
// the paper's persistent profiling database. Pair it with WithDevice.
func WithProfileDB(db *ProfileDB) Option { return func(o *core.Options) { o.ProfileDB = db } }

// WithKernelCache shares generated kernel implementations across models:
// structurally identical fusion blocks reuse one emitted kernel.
func WithKernelCache(c *KernelCache) Option { return func(o *core.Options) { o.Cache = c } }

// WithoutRewrite disables the §4.2 mathematical-property-based graph
// rewriting pass (the Figure 7 ablation).
func WithoutRewrite() Option { return func(o *core.Options) { o.GraphRewrite = false } }

// WithoutFusion disables fusion plan exploration; every operator becomes
// its own kernel (the paper's OurB baseline).
func WithoutFusion() Option { return func(o *core.Options) { o.Fusion = false } }

// WithoutBlockOpt disables the §4.4.2 intra-/inter-block optimizations
// (data-movement folding and dominant-operator layout selection).
func WithoutBlockOpt() Option { return func(o *core.Options) { o.OtherOpt = false } }

// WithoutChainFusion disables the contraction-chain post-pass: MatMul/Gemm
// → (pointwise|row-softmax) → MatMul/Gemm chains then compile as separate
// kernels with a materialized intermediate, exactly as before the chain
// kernel existed. Useful to compare peak memory and latency, and to force
// the bit-exact two-pass softmax where the online (flash-attention-style)
// chain is only ULP-accurate.
func WithoutChainFusion() Option { return func(o *core.Options) { o.ChainFusion = false } }

// WithSeedPolicy selects the fusion planner's seed heuristic (§4.3 Step I);
// the default is SeedMinIRS, the paper's choice.
func WithSeedPolicy(p SeedPolicy) Option { return func(o *core.Options) { o.Seeds = p } }

// WithBlockLimits constrains fusion blocks to at most maxOps operators and
// maxInputs exterior inputs; zero keeps the planner's default for that
// limit.
func WithBlockLimits(maxOps, maxInputs int) Option {
	return func(o *core.Options) {
		o.MaxBlockOps = maxOps
		o.MaxBlockInputs = maxInputs
	}
}

// WithQuality scales simulated kernel efficiency, used to emulate baseline
// frameworks with weaker kernel implementations (1.0 is DNNFusion's own).
func WithQuality(q float64) Option { return func(o *core.Options) { o.Quality = q } }

// WithMeasuredTuning enables measured-feedback autotuning: instead of
// trusting the analytical cache model and the ECG heuristics, Compile
// enumerates candidate fusion plans (chain fusion on/off per detected
// chain, plus the forced-FuseBreak variant), pairs them with the tuner's
// top-k schedule shortlists, and scores the (plan, schedule) pairs with
// short timed runs of the real compiled kernels — at most budget
// measurements, with the analytical model as the pruning prior. Winners
// persist in the configured ProfileDB (format v4, keyed by graph
// fingerprint × device × batch size), so repeat compilations — including
// batch-capacity variants, which tune per formed batch size — warm-start
// with zero measurement. Pair it with WithProfileDB to persist across
// processes (cmd/dnnf-tune pre-tunes offline; dnnf-serve -profile loads
// the result).
//
// Budgets of 8–32 cover the micro models; budget ≤ 0 disables measured
// tuning (the default analytical path, so CI and cold-start compile
// latency are unchanged).
func WithMeasuredTuning(budget int) Option {
	return func(o *core.Options) { o.MeasureBudget = budget }
}

// WithThreads sets the CPU executor's worker-lane count: each kernel's
// output range is split into grain-sized chunks across n lanes drawn from
// one worker pool shared by all of the model's runners. n = 0 (the
// default) uses runtime.GOMAXPROCS; n = 1 disables intra-kernel
// parallelism entirely. Whatever n, a warmed Runner.Run stays
// zero-allocation and outputs keep the documented double-buffer contract.
func WithThreads(n int) Option { return func(o *core.Options) { o.Threads = n } }

// Fusion seed policies for WithSeedPolicy.
const (
	// SeedMinIRS starts from the One-to-One operator with the smallest
	// intermediate result (the paper's policy).
	SeedMinIRS = fusion.SeedMinIRS
	// SeedMaxIRS starts from the largest intermediate result (ablation).
	SeedMaxIRS = fusion.SeedMaxIRS
	// SeedNone disables seeding; operators are visited in topo order.
	SeedNone = fusion.SeedNone
)

// KernelCache deduplicates generated kernel code within and across models;
// see WithKernelCache.
type KernelCache = codegen.Cache

// NewKernelCache creates an empty kernel cache.
func NewKernelCache() *KernelCache { return codegen.NewCache() }

// BackendCPU and BackendGPU select the text a compiled kernel's Source
// method renders: C-like loop nests or OpenCL-like work-items.
const (
	BackendCPU = codegen.CPU
	BackendGPU = codegen.GPU
)
