package dnnfusion

import (
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/core"
)

// Option configures Compile. The zero configuration (no options) is the
// full DNNFusion pipeline — graph rewriting, profile-driven fusion, and the
// intra-/inter-block optimizations — so options only ever *narrow* or
// *parameterize* it: ablations switch passes off, deployments plug in a
// device profile or a profiling database.
type Option func(*core.Options)

// WithDevice resolves yellow fusion decisions against the device's cost
// model (§4.3) instead of accepting them optimistically.
func WithDevice(d *Device) Option { return func(o *core.Options) { o.Device = d } }

// WithProfileDB caches yellow-decision measurements across compilations,
// the paper's persistent profiling database. Pair it with WithDevice.
func WithProfileDB(db *ProfileDB) Option { return func(o *core.Options) { o.ProfileDB = db } }

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

// WithThreads sets the CPU executor's worker-lane count: each kernel's
// output range is split into grain-sized chunks across n lanes drawn from
// one worker pool shared by all of the model's runners. n = 0 (the
// default) uses runtime.GOMAXPROCS; n = 1 disables intra-kernel
// parallelism entirely. Whatever n, a warmed Runner.Run stays
// zero-allocation and outputs keep the documented double-buffer contract.
func WithThreads(n int) Option { return func(o *core.Options) { o.Threads = n } }

// BackendCPU and BackendGPU select the text a compiled kernel's Source
// method renders: C-like loop nests or OpenCL-like work-items.
const (
	BackendCPU = codegen.CPU
	BackendGPU = codegen.GPU
)
