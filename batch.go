package dnnfusion

import (
	"context"
	"fmt"

	"dnnfusion/internal/core"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/tensor"
)

// BatchModel is a batch-capacity variant of a Model: the same network
// compiled with every input's leading axis scaled by Batch, so up to Batch
// same-shape requests execute as one inference over one arena plan. It is
// the execution substrate of dynamic request batching (see the serve
// package): a batcher coalesces concurrent single-request Run calls,
// drives them through one BatchRunner, and scatters the per-request output
// segments back to the callers.
//
// The variant is derived from the base model's already-rewritten compiled
// graph with graph rewriting disabled and the base executor's worker pool
// borrowed, so batched execution is bit-identical to sequential Runner.Run
// calls on the base model (pinned by the batching parity tests) and the
// pair shares one set of worker lanes. Like Model, a BatchModel is
// immutable and safe for concurrent use through per-goroutine BatchRunners.
type BatchModel struct {
	base  *Model
	m     *Model
	batch int
}

// CompileBatch compiles the model's batch-capacity variant for the given
// batch size. It fails with an error wrapping ErrNotBatchable when the
// graph does not scale along its inputs' leading axes (an operator
// hard-codes the leading extent, collapses it, or moves it into a
// contracted dimension) and with ErrCompile when the scaled graph fails to
// compile. batch must be at least 1.
//
// The structural check cannot see semantics: an operator that mixes rows
// without changing shape (a Softmax over axis 0) passes it but is wrong to
// batch. serve guards against this with a registration-time parity check
// comparing one batched run against sequential runs; direct CompileBatch
// callers that need the same guarantee should do the same.
//
// Options default to the base model's compile configuration (minus graph
// rewriting, which already ran); pass options only to override deployment
// knobs such as WithThreads.
func (m *Model) CompileBatch(batch int, opts ...Option) (*BatchModel, error) {
	if batch < 1 {
		return nil, fmt.Errorf("%w: batch size %d < 1", ErrNotBatchable, batch)
	}
	bg, err := graph.WithLeadingBatch(m.Compiled.G, batch)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotBatchable, err)
	}
	cfg := m.Compiled.Opts
	// The base compiled graph is already rewritten; rewriting it again
	// could change the math (and therefore the bits) relative to the base
	// model, breaking batching's "semantically invisible" contract.
	cfg.GraphRewrite = false
	cfg.Pool = m.Compiled.SharedPool()
	baseThreads := cfg.Threads
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Threads != baseThreads {
		// An explicit WithThreads override wins over pool borrowing: the
		// variant gets its own pool at the requested lane count (the
		// executor ignores Threads whenever Pool is set).
		cfg.Pool = nil
	}
	inner, err := Compile(bg, func(o *core.Options) { *o = cfg })
	if err != nil {
		return nil, err
	}
	// The batch graph keeps the base graph's inputs, in order and by name;
	// give its outputs the base model's public names too, so both address
	// outputs identically (positions are preserved end to end).
	for i, nv := range m.outputs {
		inner.outputs[i].name = nv.name
	}
	return &BatchModel{base: m, m: inner, batch: batch}, nil
}

// Batch returns the batch capacity the variant was compiled for.
func (bm *BatchModel) Batch() int { return bm.batch }

// Base returns the batch-1 model the variant was derived from.
func (bm *BatchModel) Base() *Model { return bm.base }

// Model returns the batch-capacity compiled model itself (its inputs carry
// the scaled leading axes), for introspection: Simulate, Kernels,
// PlannedPeakBytes of the batch arena, and so on.
func (bm *BatchModel) Model() *Model { return bm.m }

// PlannedPeakBytes is the batch-capacity arena each BatchRunner pins while
// bound — the whole batch executes out of one planned arena.
func (bm *BatchModel) PlannedPeakBytes() int64 { return bm.m.PlannedPeakBytes() }

// NewRunner creates an independent batched-inference session. Like Runner,
// a BatchRunner belongs to one goroutine at a time; any number of them run
// in parallel over one BatchModel. Creation is cheap; the first RunBatch
// (or Warm) allocates the batch-capacity arena.
func (bm *BatchModel) NewRunner() *BatchRunner {
	return &BatchRunner{newRunner(bm.base, bm.m, bm.batch)}
}

// BatchRunner executes coalesced batches over a shared BatchModel. It is
// the same core as Runner, over the batch-capacity model: the
// steady-state hot path — validation, scattering request data into the
// arena, kernel execution, and per-request output views — performs zero
// heap allocations.
type BatchRunner struct{ runner }

// RunBatch executes 1..Batch() requests as one batched inference. Each
// request is validated and copied exactly as in Runner.Run (every model
// input present, declared shape; callers may reuse fed tensors
// immediately). Partial batches pad the tail lanes with request 0 and
// discard the padded outputs.
//
// The result holds one output map per request, in request order. Output
// tensors are views into the session's double-buffered batch outputs: the
// maps and tensors returned by one RunBatch remain valid and unchanged
// through the next RunBatch on this runner and are overwritten by the one
// after that — Clone to retain longer. A request's error is Runner.Run's
// for the same request wrapped as "request i: ..." (errors.Is and
// errors.As see through it): ErrUnknownInput, ErrMissingInput, or
// ErrShapeMismatch (as a *ShapeError).
func (br *BatchRunner) RunBatch(ctx context.Context, reqs []map[string]*Tensor) ([]map[string]*Tensor, error) {
	n := len(reqs)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrMissingInput)
	}
	if n > len(br.lanes) {
		return nil, fmt.Errorf("dnnfusion: %d requests exceed batch capacity %d", n, len(br.lanes))
	}
	for i, req := range reqs {
		if err := br.feed(i, req); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return br.run(ctx, n)
}

// runner is the one core behind Runner and BatchRunner: a session over
// the executed model, one feed map per lane, and per-request output views.
// Requests are named and shaped as the base model declares; the executed
// model is the base itself (a Runner, one lane) or its batch-capacity
// variant (one lane per request of a batch).
type runner struct {
	base, exec *Model
	sess       *engine.Session
	lanes      []map[*graph.Value]*tensor.Tensor
	// rings caches per-request output views into the session's two output
	// ring sets, keyed by ring identity so the cache survives out-of-step
	// parity after errors.
	rings [2]outputRing
}

type outputRing struct {
	key *tensor.Tensor // identity of the ring set (its first output tensor)
	res []map[string]*Tensor
}

func newRunner(base, exec *Model, batch int) runner {
	r := runner{base: base, exec: exec, sess: exec.Compiled.NewSession()}
	r.lanes = make([]map[*graph.Value]*tensor.Tensor, batch)
	for i := range r.lanes {
		r.lanes[i] = make(map[*graph.Value]*tensor.Tensor, len(base.inputs))
	}
	return r
}

// Warm binds the runner's arena and kernels without running an inference,
// so a serving process can pay the one-time setup (the planned arena plus
// kernel binding) before traffic arrives instead of on the first request.
// Warming a warmed runner is a no-op.
func (r *runner) Warm() error { return r.sess.Warm() }

// Release drops the runner's arena, bound kernels and cached output views.
// The runner stays usable — the next run rebinds transparently — but an
// idle released runner pins no inference memory. Outputs from earlier runs
// remain valid.
func (r *runner) Release() {
	r.sess.Release()
	r.rings = [2]outputRing{}
}

// feed validates request i and stages its tensors in lane i.
func (r *runner) feed(i int, req map[string]*Tensor) error {
	return resolveNamedFeeds(req, r.base.inputs, r.base.Compiled.G.Inputs, r.exec.Compiled.G.Inputs, r.lanes[i])
}

// run executes the first n lanes as one batch and returns their output maps.
func (r *runner) run(ctx context.Context, n int) ([]map[string]*Tensor, error) {
	outs, err := r.sess.RunBatch(ctx, r.lanes[:n], len(r.lanes))
	if err != nil {
		return nil, err
	}
	return r.ringFor(outs).res[:n], nil
}

// ringFor returns the per-request view set over the given output ring,
// building it on the first encounter of each of the session's two ring
// sets (all allocation happens in these two builds; after that the lookup
// is two pointer compares).
func (r *runner) ringFor(outs []*tensor.Tensor) *outputRing {
	var key *tensor.Tensor // a graph with no outputs has one (empty) ring
	if len(outs) > 0 {
		key = outs[0]
	}
	for i := range r.rings {
		if ring := &r.rings[i]; ring.res != nil && ring.key == key {
			return ring
		}
	}
	slot := &r.rings[0]
	if slot.res != nil {
		if r.rings[1].res != nil {
			// Both stale (the session was released and rebound): start over.
			r.rings = [2]outputRing{}
		} else {
			slot = &r.rings[1]
		}
	}
	slot.key = key
	slot.res = make([]map[string]*Tensor, len(r.lanes))
	for i := range slot.res {
		res := make(map[string]*Tensor, len(r.base.outputs))
		for j, nv := range r.base.outputs {
			seg := nv.v.Shape.NumElements()
			res[nv.name] = tensor.ViewOf(outs[j].Data()[i*seg:(i+1)*seg], nv.v.Shape)
		}
		slot.res[i] = res
	}
	return slot
}
