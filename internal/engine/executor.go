package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/obs"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// Executor is the immutable runtime form of a compiled plan: every block's
// kernel is compiled exactly once, the block schedule is fixed up front, and
// the memory plan assigns every materialized value a stable arena slot, so
// execution never touches shared mutable state. One Executor serves any
// number of concurrent Sessions; they share its worker pool for
// intra-kernel parallelism (see Pool for the contention discipline).
type Executor struct {
	e     *ecg.ECG
	plan  *fusion.Plan
	order []*fusion.Block
	// kernels is indexed in schedule (order) position, not plan position.
	kernels []*codegen.Kernel
	// memplan maps every graph input and block output to its (offset,
	// size) slot in the per-session arena.
	memplan *MemPlan
	// pool splits kernel output ranges across worker lanes; nil when the
	// executor runs single-threaded.
	pool *Pool
	// kstats accumulates per-kernel execution accounting across every
	// session of the executor, indexed like kernels (schedule order).
	// Counts advance only while telemetry is armed (obs.Armed).
	kstats []*KernelStat
	// scalar[i] marks a kernel with a scalar-fallback path (see
	// codegen.Kernel.ScalarPaths) and scratch[i] is its one-lane scratch
	// (codegen.Kernel.Scratch); computed on the first Profile call.
	scalarOnce sync.Once
	scalar     []bool
	scratch    []int64
}

// KernelStat is one scheduled kernel's cumulative execution accounting,
// shared by all sessions of an executor. The atomic counters and the
// histogram advance only on profiled runs (obs.Armed), so the unarmed hot
// path pays nothing for their existence.
type KernelStat struct {
	runs    atomic.Uint64
	totalNs atomic.Int64
	// Hist is the kernel's execution-latency histogram in seconds. It is
	// owned by the executor and standalone (not bound to any registry), so
	// a serving layer can attach it to its obs.Registry under per-model
	// labels without double accounting.
	Hist *obs.Histogram
}

// Runs returns how many profiled executions the kernel has recorded.
func (k *KernelStat) Runs() uint64 { return k.runs.Load() }

// TotalNs returns the summed wall time of the kernel's profiled executions.
func (k *KernelStat) TotalNs() int64 { return k.totalNs.Load() }

// Span is one kernel execution in a session's last profiled run: the
// kernel's index into ScheduledKernels, its start offset from the run's
// first kernel, and its duration.
type Span struct {
	Kernel  int
	StartNs int64
	DurNs   int64
}

// KernelProfile aggregates one scheduled kernel's execution accounting —
// the per-kernel cost attribution surfaced as Model.Profile().
type KernelProfile struct {
	Kernel   string
	Schedule ops.Schedule
	Producer ops.Schedule // chain-fused kernels' producer schedule (zero otherwise)
	Chain    bool
	// Scalar marks a kernel that is not blocked end to end: somewhere in
	// its tree an operand too large to stage is pulled element by element
	// through the scalar oracle (codegen.Kernel.ScalarPaths is non-empty),
	// so its run time can be orders of magnitude above its unfused cost.
	Scalar bool
	// ScratchBytes is the Source-owned scratch one lane of one session holds
	// for the kernel, outside the planned arena (codegen.Kernel.Scratch).
	ScratchBytes int64
	Lanes        int
	Runs         uint64
	TotalNs      int64
}

// NewExecutor schedules the plan's blocks, pairs them with their compiled
// kernels, and computes the arena memory plan, with kernel execution
// parallelized over GOMAXPROCS worker lanes; NewExecutorThreads picks the
// lane count explicitly. kernels must be the result of codegen.CompilePlan
// over the same plan (one kernel per block, in plan.Blocks order); pass nil
// to compile them here.
func NewExecutor(e *ecg.ECG, plan *fusion.Plan, kernels []*codegen.Kernel) (*Executor, error) {
	return NewExecutorThreads(e, plan, kernels, 0)
}

// NewExecutorThreads is NewExecutor with an explicit worker-lane count:
// n < 1 means GOMAXPROCS, 1 disables intra-kernel parallelism.
func NewExecutorThreads(e *ecg.ECG, plan *fusion.Plan, kernels []*codegen.Kernel, n int) (*Executor, error) {
	x, err := newExecutor(e, plan, kernels)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 1 {
		x.pool = NewPool(n)
		// A pool's workers block on their wake channels indefinitely;
		// retire them when the executor (the only thing that can dispatch
		// to them) becomes unreachable, so long-lived processes that
		// compile many models do not accumulate parked goroutines. The
		// pool itself must not be the cleanup's attachment point — its
		// workers keep it reachable.
		runtime.AddCleanup(x, func(p *Pool) { p.Close() }, x.pool)
	}
	return x, nil
}

// NewExecutorPool builds an executor that BORROWS an existing worker pool
// instead of owning one: batched serving compiles a batch-capacity variant
// of a model and runs it on the base model's pool, so the pair never doubles
// the process's worker lanes. The borrowing executor does not arrange the
// pool's retirement — the owning executor does — so the caller must keep the
// owner reachable for as long as the borrower runs (a closed pool degrades
// every dispatch to an inline single-lane run, which is correct but slow).
// A nil pool yields a single-threaded executor.
func NewExecutorPool(e *ecg.ECG, plan *fusion.Plan, kernels []*codegen.Kernel, pool *Pool) (*Executor, error) {
	x, err := newExecutor(e, plan, kernels)
	if err != nil {
		return nil, err
	}
	x.pool = pool
	return x, nil
}

// newExecutor schedules blocks, pairs kernels, and plans the arena — the
// pool-independent construction shared by every executor constructor.
func newExecutor(e *ecg.ECG, plan *fusion.Plan, kernels []*codegen.Kernel) (*Executor, error) {
	if kernels == nil {
		var err error
		kernels, err = codegen.CompilePlan(e, plan, nil)
		if err != nil {
			return nil, err
		}
	}
	if len(kernels) != len(plan.Blocks) {
		return nil, fmt.Errorf("engine: %d kernels for %d blocks", len(kernels), len(plan.Blocks))
	}
	order, err := scheduleBlocks(plan, e.G)
	if err != nil {
		return nil, err
	}
	kernelOf := make(map[*fusion.Block]*codegen.Kernel, len(kernels))
	for i, b := range plan.Blocks {
		kernelOf[b] = kernels[i]
	}
	scheduled := make([]*codegen.Kernel, len(order))
	kstats := make([]*KernelStat, len(order))
	for i, b := range order {
		scheduled[i] = kernelOf[b]
		kstats[i] = &KernelStat{Hist: obs.NewHistogram(obs.KernelBuckets...)}
	}
	return &Executor{
		e:       e,
		plan:    plan,
		order:   order,
		kernels: scheduled,
		memplan: PlanArena(plan, order, e.G),
		kstats:  kstats,
	}, nil
}

// Pool returns the executor's worker pool (nil when single-threaded). It
// exists so a batch-capacity variant of a model can borrow the base
// executor's lanes via NewExecutorPool.
func (x *Executor) Pool() *Pool { return x.pool }

// Threads returns the executor's worker-lane count (1 when kernel
// execution is single-threaded).
func (x *Executor) Threads() int {
	if x.pool == nil {
		return 1
	}
	return x.pool.Lanes()
}

// Graph returns the compiled graph the executor runs.
func (x *Executor) Graph() *graph.Graph { return x.e.G }

// ScheduledKernels returns the compiled kernels in execution (schedule)
// order — the index space of KernelStats and Span.Kernel. The slice is
// shared and must not be mutated.
func (x *Executor) ScheduledKernels() []*codegen.Kernel { return x.kernels }

// KernelStats returns the executor's per-kernel accounting, aligned with
// ScheduledKernels, so serving layers can attach the histograms to their
// metric registries.
func (x *Executor) KernelStats() []*KernelStat { return x.kstats }

// Profile snapshots the executor's per-kernel execution profile: one entry
// per scheduled kernel with its name, tuner-selected schedule(s), lane
// count, and cumulative profiled run accounting across every session.
func (x *Executor) Profile() []KernelProfile {
	x.scalarOnce.Do(func() {
		x.scalar = make([]bool, len(x.kernels))
		x.scratch = make([]int64, len(x.kernels))
		for i, k := range x.kernels {
			// A kernel that cannot be composed fails at bind, loudly; it
			// has no scalar path or scratch to report.
			paths, _ := k.ScalarPaths()
			x.scalar[i] = len(paths) > 0
			x.scratch[i], _, _ = k.Scratch()
		}
	})
	lanes := x.Threads()
	out := make([]KernelProfile, len(x.kernels))
	for i, k := range x.kernels {
		out[i] = KernelProfile{
			Kernel:       k.Name,
			Schedule:     k.Schedule,
			Producer:     k.ProducerSchedule,
			Chain:        k.Block != nil && k.Block.Chain != nil,
			Scalar:       x.scalar[i],
			Lanes:        lanes,
			ScratchBytes: x.scratch[i],
			Runs:         x.kstats[i].Runs(),
			TotalNs:      x.kstats[i].TotalNs(),
		}
	}
	return out
}

// MemPlan returns the executor's arena memory plan.
func (x *Executor) MemPlan() *MemPlan { return x.memplan }

// PlannedPeakBytes is the arena size every bound session allocates — the
// planned peak activation memory under liveness-driven buffer reuse.
func (x *Executor) PlannedPeakBytes() int64 { return x.memplan.PeakBytes() }

// NewSession creates an independent execution session. A session owns its
// arena and bound kernels, so each one may be driven by only one goroutine
// at a time; create one session per serving goroutine. Creation is cheap:
// the arena is allocated and the kernels bound lazily on first Run.
func (x *Executor) NewSession() *Session {
	return &Session{x: x}
}

// parallelizer adapts the executor's pool for kernel binding; a nil
// interface keeps the bound kernels strictly serial.
func (x *Executor) parallelizer() codegen.Parallelizer {
	if x.pool == nil {
		return nil
	}
	return x.pool
}

// Session is the per-goroutine execution state over a shared Executor: one
// arena sized to the memory plan's peak, tensor headers aliasing its slots,
// and the kernels bound to those slots. After the first Run a session's
// steady-state hot path performs zero heap allocations; in exchange an idle
// bound session intentionally pins exactly PlannedPeakBytes() of arena (plus
// two copies of the output set) — call Release to drop that memory and
// rebind on the next Run.
//
// Output tensors are handed to the caller from a double buffer: the set
// returned by one Run remains valid and unchanged through the next Run and
// is reused by the one after that. Callers that retain outputs across more
// than one subsequent Run on the same session must Clone them.
type Session struct {
	x *Executor

	bound    bool
	arena    []float32
	slots    map[*graph.Value]*tensor.Tensor
	programs []*codegen.BoundKernel
	// ring double-buffers the copied-out graph outputs.
	ring   [2][]*tensor.Tensor
	parity int
	// spans is the per-session span ring: one entry per program,
	// overwritten in place on every profiled run (obs.Armed), so recording
	// a run's kernel timeline allocates nothing. profiled marks that at
	// least one profiled run has filled it.
	spans    []Span
	profiled bool
}

// bind allocates the arena, creates the slot views, composes every kernel's
// Source tree over them, and preallocates the output double buffer. All
// per-session allocation happens here, once.
func (s *Session) bind() error {
	mp := s.x.memplan
	g := s.x.e.G
	s.arena = make([]float32, mp.ArenaElems)
	s.slots = make(map[*graph.Value]*tensor.Tensor, mp.NumSlots())
	mp.Each(func(v *graph.Value, slot Slot) {
		s.slots[v] = tensor.ViewOf(s.arena[slot.Offset:slot.Offset+slot.Elems], v.Shape)
	})
	resolve := func(v *graph.Value) (*tensor.Tensor, error) {
		if v.Kind == graph.Weight {
			if v.Data == nil {
				return nil, fmt.Errorf("weight %v has no data (built with AddWeightShape?)", v)
			}
			return v.Data, nil
		}
		t, ok := s.slots[v]
		if !ok {
			return nil, fmt.Errorf("no planned slot for exterior input %v", v)
		}
		return t, nil
	}
	s.programs = make([]*codegen.BoundKernel, len(s.x.kernels))
	for i, k := range s.x.kernels {
		dsts := make([]*tensor.Tensor, len(k.Outputs))
		for j, o := range k.Outputs {
			dst, ok := s.slots[o]
			if !ok {
				return fmt.Errorf("engine: no planned slot for block output %v", o)
			}
			dsts[j] = dst
		}
		bk, err := k.BindParallel(resolve, dsts, s.x.parallelizer())
		if err != nil {
			return err
		}
		s.programs[i] = bk
	}
	s.spans = make([]Span, len(s.programs))
	s.profiled = false
	for r := range s.ring {
		s.ring[r] = make([]*tensor.Tensor, len(g.Outputs))
		for i, out := range g.Outputs {
			s.ring[r][i] = tensor.NewOf(out.Shape)
			if _, ok := s.slots[out]; !ok && out.Data != nil {
				// Rewriting can alias a graph output to a constant; its
				// data never changes, so fill both ring copies once here
				// and skip it in the per-Run copy-out.
				copy(s.ring[r][i].Data(), out.Data.Data())
			}
		}
	}
	s.parity = 0
	s.bound = true
	return nil
}

// Release drops the session's arena, bound kernels, and output buffers, so
// an idle session pins no inference memory. The session remains usable: the
// next Run rebinds (and re-allocates) transparently. Outputs returned by
// earlier Runs stay valid — they are copies, not arena views.
func (s *Session) Release() {
	s.bound = false
	s.arena = nil
	s.slots = nil
	s.programs = nil
	s.ring = [2][]*tensor.Tensor{}
	s.parity = 0
	s.spans = nil
	s.profiled = false
}

// ScalarPaths lists every scalar-fallback path in the session's bound
// kernels, across all lanes (codegen.BoundKernel.ScalarPaths); nil while
// the session is unbound. Empty is the invariant: compiled kernels are
// blocked end to end.
func (s *Session) ScalarPaths() []string {
	var paths []string
	for _, bk := range s.programs {
		paths = append(paths, bk.ScalarPaths()...)
	}
	return paths
}

// Spans returns the session's last profiled run as per-kernel spans (in
// execution order, Kernel indexing ScheduledKernels). The slice is the
// session's ring: it is overwritten by the next profiled Run and must not
// be retained or mutated. Nil until a Run executes with telemetry armed.
func (s *Session) Spans() []Span {
	if !s.profiled {
		return nil
	}
	return s.spans
}

// Run executes the plan for one set of feeds (keyed by the compiled graph's
// input values) and returns outputs in graph output order. Input data is
// copied into the arena, so the caller may reuse or mutate fed tensors as
// soon as Run returns; outputs are copied out of the arena and follow the
// double-buffer contract documented on Session. Cancellation is checked
// between kernels, so a canceled context aborts mid-inference with
// ctx.Err().
//
// Every graph input must be fed with its declared shape. Feeding any other
// value (weights, intermediates) is an error: under planned-arena execution
// non-input values have fixed backing that a feed cannot override.
func (s *Session) Run(ctx context.Context, feeds map[*graph.Value]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if !s.bound {
		if err := s.bind(); err != nil {
			return nil, err
		}
	}
	g := s.x.e.G
	for _, in := range g.Inputs {
		t, ok := feeds[in]
		if !ok {
			return nil, fmt.Errorf("engine: missing input %v", in)
		}
		if !t.Shape().Equal(in.Shape) {
			return nil, fmt.Errorf("engine: input %v fed with shape %v, want %v", in, t.Shape(), in.Shape)
		}
		copy(s.slots[in].Data(), t.Data())
	}
	if len(feeds) > len(g.Inputs) {
		for v := range feeds {
			if v.Kind != graph.Input {
				return nil, fmt.Errorf("engine: cannot feed non-input value %v under planned-arena execution", v)
			}
		}
	}
	return s.execute(ctx)
}

// Warm binds the session — allocates its arena, composes and binds the
// kernels, and preallocates the output double buffer — without running an
// inference, so a serving process can pay the one-time setup before traffic
// arrives instead of on the first request. Warming an already bound session
// is a no-op.
func (s *Session) Warm() error {
	if s.bound {
		return nil
	}
	return s.bind()
}

// RunBatch executes the plan once over a coalesced batch: the session's
// graph must be the batch-capacity variant of a model (every input's
// leading axis scaled by batch — see graph.WithLeadingBatch), and reqs
// holds up to batch per-request feed maps whose tensors each cover one
// leading-axis segment (1/batch of the corresponding input). Request i's
// data is scattered directly into rows [i*seg, (i+1)*seg) of each input's
// arena slot — no intermediate batch-shaped staging tensor exists anywhere.
// When fewer than batch requests are supplied the tail lanes replicate
// request 0, so partial batches reuse the capacity arena plan unchanged
// (padded lanes recompute request 0's rows; numerically safe where zero
// padding might not be).
//
// Outputs are the batch-shaped ring tensors under the same double-buffer
// contract as Run; callers slice per-request segments out of them. The
// steady-state hot path performs zero heap allocations.
func (s *Session) RunBatch(ctx context.Context, reqs []map[*graph.Value]*tensor.Tensor, batch int) ([]*tensor.Tensor, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("engine: empty batch")
	}
	if len(reqs) > batch {
		return nil, fmt.Errorf("engine: %d requests exceed batch capacity %d", len(reqs), batch)
	}
	if !s.bound {
		if err := s.bind(); err != nil {
			return nil, err
		}
	}
	g := s.x.e.G
	for _, in := range g.Inputs {
		elems := in.Shape.NumElements()
		if elems%batch != 0 {
			return nil, fmt.Errorf("engine: input %v has %d elements, not divisible by batch %d", in, elems, batch)
		}
		seg := elems / batch
		slot := s.slots[in].Data()
		for lane := 0; lane < batch; lane++ {
			req := reqs[0]
			if lane < len(reqs) {
				req = reqs[lane]
			}
			t, ok := req[in]
			if !ok {
				return nil, fmt.Errorf("engine: request %d missing input %v", lane, in)
			}
			if t.NumElements() != seg {
				return nil, fmt.Errorf("engine: request %d feeds input %v with %d elements, want %d (one batch segment)",
					lane, in, t.NumElements(), seg)
			}
			copy(slot[lane*seg:(lane+1)*seg], t.Data())
		}
	}
	return s.execute(ctx)
}

// execute runs the bound kernels over the already-scattered arena inputs
// and copies the graph outputs into the current ring set — the tail shared
// by Run and RunBatch.
func (s *Session) execute(ctx context.Context) ([]*tensor.Tensor, error) {
	g := s.x.e.G
	// Profiling gates on one atomic load per run; when armed, each kernel
	// costs two clock reads and a few atomic updates — no allocation — so
	// the zero-allocs-per-op steady state holds armed or not.
	profiling := obs.Armed()
	var runStart time.Time
	if profiling {
		runStart = time.Now()
	}
	for i, bk := range s.programs {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: canceled before kernel %d/%d: %w", i+1, len(s.programs), err)
			}
		}
		if !profiling {
			bk.ExecuteInto()
			continue
		}
		kStart := time.Now()
		bk.ExecuteInto()
		dur := time.Since(kStart)
		ks := s.x.kstats[i]
		ks.runs.Add(1)
		ks.totalNs.Add(int64(dur))
		ks.Hist.Observe(dur.Seconds())
		s.spans[i] = Span{Kernel: i, StartNs: int64(kStart.Sub(runStart)), DurNs: int64(dur)}
	}
	if profiling {
		s.profiled = true
	}
	out := s.ring[s.parity]
	for i, o := range g.Outputs {
		slot, ok := s.slots[o]
		if !ok {
			// Constant-aliased outputs were copied once at bind time.
			if o.Data != nil {
				continue
			}
			return nil, fmt.Errorf("engine: output %v not produced", o)
		}
		copy(out[i].Data(), slot.Data())
	}
	s.parity = 1 - s.parity
	return out, nil
}
