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

	inputs  map[string]*batchInSpec
	inNames []string
	outputs []batchOutSpec
}

type batchInSpec struct {
	v         *graph.Value // the batch graph's input value
	baseShape Shape        // one request's segment shape
	seg       int          // elements per request
}

type batchOutSpec struct {
	name      string
	baseShape Shape
	seg       int
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
	bm := &BatchModel{base: m, m: inner, batch: batch}
	bm.inputs = make(map[string]*batchInSpec, len(m.inputNames))
	for i, name := range m.inputNames {
		baseShape := m.Compiled.G.Inputs[i].Shape.Clone()
		bm.inputs[name] = &batchInSpec{
			v:         inner.Compiled.G.Inputs[i],
			baseShape: baseShape,
			seg:       baseShape.NumElements(),
		}
		bm.inNames = append(bm.inNames, name)
	}
	for i, nv := range m.outputs {
		baseShape := nv.v.Shape.Clone()
		bm.outputs = append(bm.outputs, batchOutSpec{
			name:      nv.name,
			baseShape: baseShape,
			seg:       baseShape.NumElements(),
		})
		// The inner model's output names derive from the batch graph; give
		// them the base model's public names so both address outputs
		// identically (positions are preserved end to end).
		inner.outputs[i].name = nv.name
	}
	return bm, nil
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
	br := &BatchRunner{
		bm:   bm,
		sess: bm.m.Compiled.NewSession(),
	}
	br.lanes = make([]map[*graph.Value]*tensor.Tensor, bm.batch)
	for i := range br.lanes {
		br.lanes[i] = make(map[*graph.Value]*tensor.Tensor, len(bm.inputs))
	}
	return br
}

// BatchRunner executes coalesced batches over a shared BatchModel. The
// steady-state hot path — validation, scattering request data into the
// arena, kernel execution, and per-request output views — performs zero
// heap allocations.
type BatchRunner struct {
	bm    *BatchModel
	sess  *engine.Session
	lanes []map[*graph.Value]*tensor.Tensor
	// rings caches per-request output views into the session's two output
	// ring sets, keyed by ring identity so the cache survives out-of-step
	// parity after errors.
	rings [2]batchRing
}

type batchRing struct {
	key *tensor.Tensor // identity of the ring set (its first output tensor)
	res []map[string]*Tensor
}

// Warm binds the runner's batch-capacity arena and kernels before traffic
// arrives; see Runner.Warm.
func (br *BatchRunner) Warm() error { return br.sess.Warm() }

// Release drops the runner's arena, bound kernels, and cached output
// views; the next RunBatch rebinds transparently.
func (br *BatchRunner) Release() {
	br.sess.Release()
	br.rings = [2]batchRing{}
}

// RunBatch executes 1..Batch() requests as one batched inference. Each
// request maps input names to base-shaped tensors (every model input
// present, declared shape) exactly as in Runner.Run; request data is
// copied into the batch arena, so callers may reuse fed tensors
// immediately. Partial batches pad the tail lanes with request 0 and
// discard the padded outputs.
//
// The result holds one output map per request, in request order. Output
// tensors are views into the session's double-buffered batch outputs: the
// maps and tensors returned by one RunBatch remain valid and unchanged
// through the next RunBatch on this runner and are overwritten by the one
// after that — Clone to retain longer. Errors wrap ErrUnknownInput,
// ErrMissingInput, or ErrShapeMismatch (as a *ShapeError), naming the
// offending request.
func (br *BatchRunner) RunBatch(ctx context.Context, reqs []map[string]*Tensor) ([]map[string]*Tensor, error) {
	n := len(reqs)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrMissingInput)
	}
	if n > br.bm.batch {
		return nil, fmt.Errorf("dnnfusion: %d requests exceed batch capacity %d", n, br.bm.batch)
	}
	for i, req := range reqs {
		lane := br.lanes[i]
		clear(lane)
		for name, t := range req {
			spec, ok := br.bm.inputs[name]
			if !ok {
				return nil, fmt.Errorf("%w: request %d: %q (model inputs: %v)", ErrUnknownInput, i, name, br.bm.inNames)
			}
			if t == nil {
				return nil, fmt.Errorf("%w: request %d: %q fed a nil tensor", ErrMissingInput, i, name)
			}
			if !t.Shape().Equal(spec.baseShape) {
				return nil, &ShapeError{Input: name, Want: spec.baseShape.Clone(), Got: t.Shape()}
			}
			lane[spec.v] = t
		}
		for _, name := range br.bm.inNames {
			if _, ok := req[name]; !ok {
				return nil, fmt.Errorf("%w: request %d: %q", ErrMissingInput, i, name)
			}
		}
	}
	outs, err := br.sess.RunBatch(ctx, br.lanes[:n], br.bm.batch)
	if err != nil {
		return nil, err
	}
	ring := br.ringFor(outs)
	return ring.res[:n], nil
}

// ringFor returns the per-request view set over the given output ring,
// building it on the first encounter of each of the session's two ring
// sets (all allocation happens in these two builds; after that the lookup
// is two pointer compares).
func (br *BatchRunner) ringFor(outs []*tensor.Tensor) *batchRing {
	key := outs[0]
	if br.rings[0].key == key {
		return &br.rings[0]
	}
	if br.rings[1].key == key {
		return &br.rings[1]
	}
	slot := &br.rings[0]
	if slot.key != nil {
		if br.rings[1].key != nil {
			// Both stale (the session was released and rebound): start over.
			br.rings = [2]batchRing{}
		} else {
			slot = &br.rings[1]
		}
	}
	slot.key = key
	slot.res = make([]map[string]*Tensor, br.bm.batch)
	for i := range slot.res {
		res := make(map[string]*Tensor, len(br.bm.outputs))
		for j, spec := range br.bm.outputs {
			data := outs[j].Data()
			res[spec.name] = tensor.ViewOf(data[i*spec.seg:(i+1)*spec.seg], spec.baseShape)
		}
		slot.res[i] = res
	}
	return slot
}
