package codegen

import (
	"fmt"
	"slices"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// Layout is the data layout a kernel computes in; the inter-block
// optimization picks one per block from its dominant operator (§4.4.2).
type Layout string

const (
	LayoutNCHW     Layout = "NCHW"
	LayoutNHWC     Layout = "NHWC"
	LayoutRowMajor Layout = "row-major"
)

// Kernel is the compiled form of a fusion block.
type Kernel struct {
	Name  string
	Key   string
	Block *fusion.Block
	DFT   *DFT

	Inputs  []*graph.Value
	Outputs []*graph.Value

	// Rules lists the Table 3 code-generation rules invoked while
	// stitching the block, in fusion order.
	Rules []GenRule
	// Layout is the block's layout, chosen by the dominant operator.
	Layout Layout
	// DominantOp is the operator that chose the layout.
	DominantOp string

	// Schedule is the tuner-selected tile schedule of a heavy kernel,
	// attached by the compiler after code generation (core.Compile) and
	// applied to the kernel's Source trees at bind time. A zero schedule
	// leaves the operators' built-in default blocking in place. TaskM/
	// TaskN/TaskK record the GEMM-shape tuning task the schedule was
	// selected for (see ScheduleTask), so benchmarks can explain the
	// choice.
	Schedule            ops.Schedule
	TaskM, TaskN, TaskK int
	// ProducerSchedule is the second schedule of a chain-fused kernel
	// (Block.Chain != nil): it tiles the chain's producer contraction, and
	// its column panel is the online softmax's key-panel width. Zero for
	// ordinary kernels; applied together with Schedule via
	// ops.ApplyChainSchedule at bind time.
	ProducerSchedule ops.Schedule

	// Cost profile used by the device model.
	FLOPs      int64
	ReadBytes  int64
	WriteBytes int64
	OpCount    int
	// Disruption counts Shuffle/One-to-Many operators fused into the
	// block; the device model charges heavy kernels for the resulting
	// strided access (the yellow-cell effect of Table 3).
	Disruption int
}

// Cache deduplicates generated kernel code structurally within and across
// models. It stores implementation names, not kernels: one generated
// implementation is shared by every structurally identical fusion site in
// this or future models, while each Kernel keeps its own per-site wiring
// (values, tensors).
type Cache struct {
	// names maps a block's structural key to its implementation name.
	names  map[string]string
	Hits   int
	Misses int
}

// NewCache returns an empty kernel cache.
func NewCache() *Cache { return &Cache{names: map[string]string{}} }

// Size returns the number of distinct generated kernel implementations.
func (c *Cache) Size() int { return len(c.names) }

// Compile builds the kernel for a fusion block, reusing the generated
// implementation from the cache when a structurally identical block was
// compiled before. The returned bool reports a cache hit.
func Compile(e *ecg.ECG, b *fusion.Block, cache *Cache) (*Kernel, bool, error) {
	key := StructuralKey(b)
	dft := BuildDFT(b)
	k := &Kernel{
		Name:    fmt.Sprintf("dnnf_kernel_%s", shortHash(key)),
		Key:     key,
		Block:   b,
		DFT:     dft,
		Inputs:  b.Inputs(),
		Outputs: dft.Roots,
		FLOPs:   dft.FLOPs,
		OpCount: b.Size(),
	}
	for _, in := range k.Inputs {
		k.ReadBytes += in.Shape.Bytes()
	}
	for _, out := range k.Outputs {
		k.WriteBytes += out.Shape.Bytes()
	}
	if err := k.planRules(e); err != nil {
		return nil, false, err
	}
	for _, n := range b.Nodes {
		switch e.Mapping(n) {
		case ops.Shuffle, ops.OneToMany:
			k.Disruption++
		}
	}
	k.chooseLayout(e)
	if cache != nil {
		if name, ok := cache.names[key]; ok {
			cache.Hits++
			k.Name = name
			return k, true, nil
		}
		cache.names[key] = k.Name
		cache.Misses++
	}
	return k, false, nil
}

// planRules replays the block's fusion order through the Table 3 rule
// table, recording the strategy for every pairwise fusion (Figure 4's
// "fused code generation for each pair of operators").
func (k *Kernel) planRules(e *ecg.ECG) error {
	if k.Block.Size() < 2 {
		return nil
	}
	if c := k.Block.Chain; c != nil {
		// Chain-fused blocks hold two ManyToMany contractions — a red pair
		// under Table 3's pairwise rules, fused on purpose by the streaming
		// chain kernel. Record the single chain-stream rule instead of
		// replaying the pairwise table.
		note := "contraction chain: producer row tiles stream into consumer"
		if c.Online {
			note = "contraction chain: online-softmax (streaming rescale) attention"
		}
		k.Rules = append(k.Rules, GenRule{
			First:    ops.ManyToMany,
			Second:   ops.ManyToMany,
			Decision: fusion.FuseThrough,
			Strategy: ChainStream,
			Note:     note,
		})
		return nil
	}
	acc := e.Mapping(k.Block.Nodes[0])
	for _, n := range k.Block.Nodes[1:] {
		m := e.Mapping(n)
		rule, ok := lookupRule(CPU, acc, m)
		if !ok {
			// Fall back to the predecessor orientation (the planner
			// fused this node in front of the block).
			rule, ok = lookupRule(CPU, m, acc)
			if !ok {
				return fmt.Errorf("codegen: %s: red pair %v+%v reached code generation",
					k.Name, acc, m)
			}
			acc, _ = fusion.Combine(m, acc)
		} else {
			acc, _ = fusion.Combine(acc, m)
		}
		k.Rules = append(k.Rules, rule)
	}
	return nil
}

// chooseLayout implements the inter-block optimization: the operator whose
// performance is most layout-sensitive (largest FLOPs among Conv/GEMM-like
// and Softmax ops, falling back to the biggest op) dictates the layout for
// the whole block.
func (k *Kernel) chooseLayout(e *ecg.ECG) {
	var dom *graph.Node
	var domFLOPs int64 = -1
	for _, n := range k.Block.Nodes {
		f := nodeFLOPs(n)
		if layoutSensitive(n.Op.Type()) {
			f += 1 << 40 // layout-sensitive ops dominate regardless of size
		}
		if f > domFLOPs {
			domFLOPs = f
			dom = n
		}
	}
	k.DominantOp = dom.Op.Type()
	k.Layout = preferredLayout(dom.Op.Type())
}

func layoutSensitive(opType string) bool {
	switch opType {
	case "Conv", "ConvTranspose", "MatMul", "Gemm", "Einsum", "Softmax":
		return true
	}
	return false
}

// Heavy reports whether the kernel contains compute-bound (Conv/GEMM-class)
// work; the device model prices heavy and light kernels differently.
func (k *Kernel) Heavy() bool {
	for _, n := range k.Block.Nodes {
		switch n.Op.Type() {
		case "Conv", "ConvTranspose", "MatMul", "Gemm", "Einsum":
			return true
		}
	}
	return false
}

// ScheduleTask derives the kernel's schedule-tuning task: the GEMM-shape
// (M, N, K) of its FLOPs-dominant schedulable heavy operator. ok is false
// for kernels with nothing to schedule (light kernels, or heavy kernels
// with no tile loop: Pool walks an odometer, Einsum and ConvTranspose pull
// from staged operands).
func (k *Kernel) ScheduleTask() (m, n, kk int, ok bool) {
	var best int64 = -1
	for _, nd := range k.Block.Nodes {
		shapes := make([]tensor.Shape, len(nd.Inputs))
		for i, in := range nd.Inputs {
			shapes[i] = in.Shape
		}
		tm, tn, tk, tok := ops.ScheduleTaskDims(nd.Op, shapes)
		if !tok {
			continue
		}
		if f := nd.Op.FLOPs(shapes); f > best {
			best = f
			m, n, kk, ok = tm, tn, tk, true
		}
	}
	return m, n, kk, ok
}

// ChainScheduleTasks derives the two tuning tasks of a chain-fused kernel:
// the producer contraction's GEMM shape and the consumer's. ok is false
// for non-chain kernels.
func (k *Kernel) ChainScheduleTasks() (pm, pn, pk, cm, cn, ck int, ok bool) {
	c := k.Block.Chain
	if c == nil {
		return 0, 0, 0, 0, 0, 0, false
	}
	dims := func(nd *graph.Node) (int, int, int, bool) {
		shapes := make([]tensor.Shape, len(nd.Inputs))
		for i, in := range nd.Inputs {
			shapes[i] = in.Shape
		}
		return ops.ScheduleTaskDims(nd.Op, shapes)
	}
	var pok, cok bool
	pm, pn, pk, pok = dims(c.Producer)
	cm, cn, ck, cok = dims(c.Consumer)
	return pm, pn, pk, cm, cn, ck, pok && cok
}

// FoldedMovementBytes is the traffic the intra-block optimization avoids:
// the write+read of every interior data-movement result folded into index
// arithmetic (Figure 5). The engine charges it back when that optimization
// is disabled.
func (k *Kernel) FoldedMovementBytes() int64 {
	var total int64
	for _, n := range k.DFT.FoldedMovement {
		for _, out := range n.Outputs {
			total += 2 * out.Shape.Bytes()
		}
	}
	return total
}

func preferredLayout(opType string) Layout {
	switch opType {
	case "Conv", "ConvTranspose", "MaxPool", "AveragePool":
		return LayoutNCHW
	case "MatMul", "Gemm", "Einsum", "Softmax":
		return LayoutRowMajor
	default:
		return LayoutNCHW
	}
}

// Ranger is work that can evaluate any sub-range of an output's row-major
// index space on a numbered worker lane. Lanes own disjoint scratch, so
// distinct lanes may run concurrently; a single lane belongs to one
// goroutine at a time.
type Ranger interface {
	RunRange(lane, lo, hi int)
}

// Parallelizer is the executor-provided parallel-for a BoundKernel splits
// its output ranges over: For covers [0, total) with grain-sized chunks,
// calling r.RunRange with distinct lanes in [0, Lanes()), and returns only
// when every chunk is done. Lane 0 is the calling goroutine.
type Parallelizer interface {
	Lanes() int
	For(total, grain int, r Ranger)
}

// Parallel chunk sizing: a chunk should carry enough arithmetic to
// amortize a dispatch (parGrainFLOPs), never fall under parMinGrain output
// elements, and a single output should never shatter into more than
// 4×lanes chunks (outputs over staged operands: one chunk per lane, see
// BindParallel).
const (
	parGrainFLOPs = 32768
	parMinGrain   = 256
)

// BoundKernel is a kernel bound to concrete input tensors and destination
// buffers: the Source trees are composed once at bind time (per session),
// so ExecuteInto evaluates the fused block without building closures,
// maps, or result tensors — the steady-state hot path performs zero heap
// allocations. When bound with a Parallelizer, one independent Source tree
// is composed per worker lane (Sources carry scratch, so a tree belongs to
// one goroutine at a time) and large outputs are split across lanes.
// A BoundKernel belongs to one driving goroutine at a time; distinct
// sessions bind their own.
type BoundKernel struct {
	k    *Kernel
	par  Parallelizer
	outs []boundOutput
	// stages are every lane's staged operands (ops.Staged): filled on first
	// use within an execution, invalidated at the start of the next.
	stages []*ops.Staged
}

type boundOutput struct {
	// srcs[lane] is lane's independently composed Source tree; idxs[lane]
	// its unravel scratch for sources without a blocked path (none that
	// Virtualize composes; see ops.ScalarPaths).
	srcs  []ops.Source
	idxs  [][]int
	dst   *tensor.Tensor
	elems int
	grain int
}

// RunRange evaluates output elements [lo, hi) on the given lane; it
// implements Ranger so a Parallelizer can drive the output directly.
func (o *boundOutput) RunRange(lane, lo, hi int) {
	ops.MaterializeRange(o.srcs[lane], o.dst, o.idxs[lane], lo, hi)
}

// Bind composes the kernel's Source tree over stable exterior inputs and
// pairs each block output with its destination tensor; the bound kernel
// executes serially. See BindParallel for the multi-lane form.
func (k *Kernel) Bind(resolve func(v *graph.Value) (*tensor.Tensor, error), dsts []*tensor.Tensor) (*BoundKernel, error) {
	return k.BindParallel(resolve, dsts, nil)
}

// BindParallel composes the kernel's Source trees over stable exterior
// inputs and pairs each block output with its destination tensor. resolve
// supplies the tensor backing every exterior input — the planned-arena
// executor resolves weights to their constant data and everything else to
// arena-slot views that stay valid across runs. dsts must parallel
// k.Outputs and have the outputs' shapes.
//
// With a non-nil Parallelizer, one Source tree per lane is composed so
// ExecuteInto can evaluate disjoint output ranges concurrently; par must
// then be the same parallelizer passed to every kernel of the session.
func (k *Kernel) BindParallel(resolve func(v *graph.Value) (*tensor.Tensor, error), dsts []*tensor.Tensor, par Parallelizer) (*BoundKernel, error) {
	if len(dsts) != len(k.Outputs) {
		return nil, fmt.Errorf("codegen: %s: %d destinations for %d outputs", k.Name, len(dsts), len(k.Outputs))
	}
	lanes := 1
	if par != nil {
		lanes = par.Lanes()
	}
	if lanes < 1 {
		lanes = 1
	}
	bk := &BoundKernel{k: k, outs: make([]boundOutput, len(k.Outputs))}
	if lanes > 1 {
		bk.par = par
	}

	var totalElems int64
	for i, o := range k.Outputs {
		if !dsts[i].Shape().Equal(o.Shape) {
			return nil, fmt.Errorf("codegen: %s: destination %d has shape %v, output is %v",
				k.Name, i, dsts[i].Shape(), o.Shape)
		}
		totalElems += int64(o.Shape.NumElements())
	}
	flopsPerElem := int64(1)
	if totalElems > 0 && k.FLOPs > totalElems {
		flopsPerElem = k.FLOPs / totalElems
	}

	for lane := 0; lane < lanes; lane++ {
		srcs, err := k.compose(func(v *graph.Value) (ops.Source, error) {
			t, err := resolve(v)
			if err != nil {
				return nil, err
			}
			if !t.Shape().Equal(v.Shape) {
				return nil, fmt.Errorf("input %v fed with shape %v", v, t.Shape())
			}
			return ops.AsSource(t), nil
		})
		if err != nil {
			return nil, err
		}
		for i, o := range k.Outputs {
			s := srcs[i]
			// Bind time is where the compile-time schedule artifact meets
			// the Source tree: every lane's independently composed heavy
			// sources adopt the kernel's tuned blocking (and size their
			// panel and accumulator scratch) here, so the steady-state hot
			// path still allocates nothing. A kernel no tuner scheduled
			// goes through the same walk: its contractions keep their
			// default tiles and the consumers above them still stage whole
			// tiles.
			k.applySchedule(s)
			stages := ops.StagedSources(s)
			bo := &bk.outs[i]
			if lane == 0 {
				elems := o.Shape.NumElements()
				grain := int(parGrainFLOPs / flopsPerElem)
				if grain < parMinGrain {
					grain = parMinGrain
				}
				if floor := elems / (4 * lanes); grain < floor {
					grain = floor
				}
				if len(stages) > 0 {
					// Every lane that touches this output fills its stages
					// once per run — a whole operand each, or the row windows
					// of its own chunk — so cap the output at one chunk per
					// lane: more chunks would not divide that work.
					if floor := (elems + lanes - 1) / lanes; grain < floor {
						grain = floor
					}
				}
				if span := ops.TileSpan(s); span > 0 {
					// Round the grain up to whole row tiles: pool chunks
					// start at multiples of the grain, so worker lanes
					// split the output on tile boundaries and no chunk
					// degrades the tiled path mid-tile.
					grain = (grain + span - 1) / span * span
				}
				*bo = boundOutput{
					srcs:  make([]ops.Source, lanes),
					idxs:  make([][]int, lanes),
					dst:   dsts[i],
					elems: elems,
					grain: grain,
				}
			}
			bo.srcs[lane] = s
			bo.idxs[lane] = make([]int, o.Shape.Rank())
			// Outputs of one lane share subtrees, so a stage can be reached
			// from several of them: keep each once.
			for _, st := range stages {
				if !slices.Contains(bk.stages, st) {
					bk.stages = append(bk.stages, st)
				}
			}
		}
	}
	return bk, nil
}

// applySchedule configures one output's Source tree with the kernel's tile
// schedule(s).
func (k *Kernel) applySchedule(s ops.Source) {
	if k.Block.Chain != nil {
		ops.ApplyChainSchedule(s, k.Schedule, k.ProducerSchedule)
	} else {
		ops.ApplySchedule(s, k.Schedule)
	}
}

// compose builds the kernel's Source tree: one source per block output,
// composed by Virtualize over the sources leaf supplies for the block's
// exterior inputs. A value consumed twice inside the block is one shared
// source.
func (k *Kernel) compose(leaf func(v *graph.Value) (ops.Source, error)) ([]ops.Source, error) {
	srcOf := map[*graph.Value]ops.Source{}
	var build func(v *graph.Value) (ops.Source, error)
	build = func(v *graph.Value) (ops.Source, error) {
		if s, ok := srcOf[v]; ok {
			return s, nil
		}
		if v.Producer == nil || !k.Block.Contains(v.Producer) {
			s, err := leaf(v)
			if err != nil {
				return nil, fmt.Errorf("codegen: %s: %w", k.Name, err)
			}
			srcOf[v] = s
			return s, nil
		}
		n := v.Producer
		ins := make([]ops.Source, len(n.Inputs))
		for i, in := range n.Inputs {
			s, err := build(in)
			if err != nil {
				return nil, err
			}
			ins[i] = s
		}
		s, err := n.Op.Virtualize(ins, v.ProducerOut)
		if err != nil {
			return nil, fmt.Errorf("codegen: %s: %v: %w", k.Name, n, err)
		}
		srcOf[v] = s
		return s, nil
	}
	srcs := make([]ops.Source, len(k.Outputs))
	for i, o := range k.Outputs {
		s, err := build(o)
		if err != nil {
			return nil, err
		}
		srcs[i] = s
	}
	return srcs, nil
}

// placeholder is the compose leaf of static inspection: shapes, no data.
func placeholder(v *graph.Value) (ops.Source, error) { return ops.Placeholder(v.Shape), nil }

// ScalarPaths composes the kernel over data-less placeholder inputs and
// returns ops.ScalarPaths over its outputs: the places where executing the
// kernel would pull a lazy operand element by element through the scalar
// oracle (an operand too large to stage). Empty for a kernel that is
// blocked end to end. It needs shapes only, so it works for models with
// shape-only weights.
func (k *Kernel) ScalarPaths() ([]string, error) {
	srcs, err := k.compose(placeholder)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, s := range srcs {
		paths = append(paths, ops.ScalarPaths(s)...)
	}
	return paths, nil
}

// Scratch composes the kernel over placeholder inputs as one lane of a
// session binds it — scheduled — and reports the Source-owned scratch that
// lane holds outside the planned arena, in bytes (ops.ScratchBytes), with a
// one-line summary of every pointwise program in the tree. Like ScalarPaths
// it needs shapes only.
func (k *Kernel) Scratch() (bytes int64, programs []string, err error) {
	srcs, err := k.compose(placeholder)
	if err != nil {
		return 0, nil, err
	}
	for _, s := range srcs {
		k.applySchedule(s)
	}
	return ops.ScratchBytes(srcs...), ops.Programs(srcs...), nil
}

// ScalarPaths returns ops.ScalarPaths over every lane's bound tree of every
// output; see Kernel.ScalarPaths for the shape-only form.
func (b *BoundKernel) ScalarPaths() []string {
	var paths []string
	for i := range b.outs {
		for _, s := range b.outs[i].srcs {
			paths = append(paths, ops.ScalarPaths(s)...)
		}
	}
	return paths
}

// ExecuteInto evaluates the fused block, writing every block output into
// its bound destination. Interior values never exist in memory — precisely
// the intermediate-result elimination that fusion buys — and nothing is
// allocated. Outputs large enough to amortize a dispatch are split across
// the parallelizer's lanes; everything else runs inline on lane 0.
func (b *BoundKernel) ExecuteInto() {
	for _, st := range b.stages {
		st.Invalidate()
	}
	for i := range b.outs {
		o := &b.outs[i]
		if b.par != nil && o.elems >= 2*o.grain {
			b.par.For(o.elems, o.grain, o)
		} else {
			o.RunRange(0, 0, o.elems)
		}
	}
}

// Execute runs the fused kernel in the pull model, materializing block
// outputs into fresh tensors. env must hold every exterior input (weights
// may be omitted; their constant data is used directly). It is the
// bind-per-call convenience form of Bind/ExecuteInto; hot paths bind once
// and execute into planned destinations instead.
func (k *Kernel) Execute(env map[*graph.Value]*tensor.Tensor) (map[*graph.Value]*tensor.Tensor, error) {
	resolve := func(v *graph.Value) (*tensor.Tensor, error) {
		t, ok := env[v]
		if !ok {
			if v.Data != nil {
				return v.Data, nil
			}
			return nil, fmt.Errorf("missing exterior input %v", v)
		}
		return t, nil
	}
	dsts := make([]*tensor.Tensor, len(k.Outputs))
	for i, o := range k.Outputs {
		dsts[i] = tensor.NewOf(o.Shape)
	}
	bk, err := k.Bind(resolve, dsts)
	if err != nil {
		return nil, err
	}
	bk.ExecuteInto()
	out := make(map[*graph.Value]*tensor.Tensor, len(k.Outputs))
	for i, o := range k.Outputs {
		out[o] = dsts[i]
	}
	return out, nil
}

// shortHash is a tiny FNV-1a hex digest for kernel names.
func shortHash(s string) string {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("%08x", uint32(h^(h>>32)))
}

// CompilePlan compiles every block of a fusion plan, sharing the cache.
func CompilePlan(e *ecg.ECG, plan *fusion.Plan, cache *Cache) ([]*Kernel, error) {
	kernels := make([]*Kernel, 0, len(plan.Blocks))
	for _, b := range plan.Blocks {
		k, _, err := Compile(e, b, cache)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return kernels, nil
}
