package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnfusion"

	"dnnfusion/internal/faultinject"
	"dnnfusion/internal/obs"
)

// Host serves one registered model: it owns the (possibly lazily built)
// Model, the batch-capacity variant, the dispatcher goroutine that forms
// dynamic batches, the pooled result buffers, and the per-model counters.
// Hosts are safe for concurrent use by any number of goroutines.
type Host struct {
	name string
	cfg  Config

	build func() (*dnnfusion.Model, error)

	initOnce sync.Once
	initErr  error
	// onBuildFail fires once if the builder fails (set by Registry.add to
	// bump the repository-wide failure counter; nil for bare hosts).
	onBuildFail func()
	model       *dnnfusion.Model
	batch       *dnnfusion.BatchModel // nil → per-request execution
	batchOff    string                // why batching is off ("" when on)
	inSpecs     []TensorSpec
	outSpecs    []TensorSpec

	calls     chan *call
	closeOnce sync.Once
	closed    chan struct{}
	// ctx is the host's shutdown context: created at registration (with
	// closed), canceled by close, and threaded into every batch execution
	// so an in-flight batch observes eviction/server drain between kernels
	// instead of running to completion against a host that is already
	// gone.
	ctx    context.Context
	cancel context.CancelFunc
	// closing flips before closed is closed; pending counts Run calls
	// between their closing-check and their result. Together they close
	// the eviction race: the dispatcher's drain keeps serving ErrClosed
	// until every such Run has been answered, so a request can never
	// strand in a queue no goroutine reads anymore.
	closing atomic.Bool
	pending atomic.Int64
	// inbound counts requests on their way to the queue or in it: from
	// handlePredict resolving the host (before the body is read) or Run's
	// entry until the dispatcher dequeues the call — or the request fails
	// first. A forming batch waits for peers only while it is positive.
	inbound atomic.Int64

	// limiter is the registry-wide in-flight ceiling this host admits
	// through (nil for bare hosts, always set by Registry.add).
	limiter *inflight
	// obs is the repository metric registry the host publishes on (nil for
	// bare hosts; set by Registry.add before init can run).
	obs *obs.Registry

	resPool sync.Pool
	// inPool recycles the input tensor sets :predict bodies decode into.
	inPool sync.Pool
	// outNames is the model's output names, sorted: the order a response
	// lists them in.
	outNames []string
	st       stats

	// started marks the dispatcher goroutine running (set at the end of
	// init, read lock-free by Loaded).
	started atomic.Bool
}

// call is one enqueued request. ctx is the caller's context, carried into
// the queue so the dispatcher can drop the call once its deadline has
// passed instead of executing work nobody will read. The done channel
// carries exactly one token per dispatch; calls recycle through a pool on
// the success path.
//
// The timing fields record the request's passage through the pipeline:
// start/enq are stamped by Run before enqueueing; deq, execStart, execNs,
// and batchSize by the dispatcher before the done token is sent, so Run
// reads them race-free after <-c.done (and never on the abandon path).
type call struct {
	ctx    context.Context
	inputs map[string]*dnnfusion.Tensor
	res    *Result
	err    error
	done   chan struct{}

	start     time.Time // admission (Run entry, post-init)
	enq       time.Time // enqueued into h.calls
	deq       time.Time // pulled by the dispatcher
	execStart time.Time // execution began for this call's batch
	execNs    int64     // execution wall time
	batchSize int       // peers coalesced with this call (incl. itself)
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// Result is one request's outputs, served from a per-host buffer pool so a
// warmed host's steady state allocates nothing for output delivery. The
// tensors are owned copies (not views into any runner): they stay valid
// until Release, which recycles them — callers that retain data longer must
// Clone first. Releasing is optional (a dropped Result is garbage
// collected); it is the fast path, not a correctness requirement.
type Result struct {
	h    *Host
	outs map[string]*dnnfusion.Tensor
	tl   Timeline
}

// Timeline is one request's per-stage timing, recorded for every
// successfully delivered Run: admission (validation and limiter checks
// before enqueue), queue wait (enqueue to dispatcher pull), batch formation
// (pull to execution start), and the execution itself. The HTTP layer
// surfaces it as the ?trace=1 block on :predict.
type Timeline struct {
	// BatchSize is how many requests were coalesced into this call's
	// execution (1 when served per-request).
	BatchSize int
	// DecodeNs is the time before admission a :predict request spent
	// becoming tensors, from the first byte of its handler: reading and
	// decoding the body. 0 for a direct Run, which starts at admission.
	DecodeNs    int64
	AdmissionNs int64
	QueueWaitNs int64
	BatchFormNs int64
	ExecuteNs   int64
	// TotalNs is the full admission-to-result latency; the gap between it
	// and the sum of the stages is response delivery.
	TotalNs int64
}

// Timeline returns the request's stage timings; valid until Release.
func (r *Result) Timeline() Timeline { return r.tl }

// Outputs maps output names to tensors; valid until Release.
func (r *Result) Outputs() map[string]*dnnfusion.Tensor { return r.outs }

// Output returns one named output tensor (nil when absent).
func (r *Result) Output(name string) *dnnfusion.Tensor { return r.outs[name] }

// Release returns the result's buffers to the host pool.
func (r *Result) Release() {
	if r == nil || r.h == nil {
		return
	}
	h := r.h
	r.h = nil
	h.resPool.Put(r)
}

// Name returns the model name the host serves under.
func (h *Host) Name() string { return h.name }

// Model returns the served model, building it on first use.
func (h *Host) Model() (*dnnfusion.Model, error) {
	if err := h.init(); err != nil {
		return nil, err
	}
	return h.model, nil
}

// init builds the model, compiles the batch variant (with parity
// self-check), snapshots the I/O specs, and starts the dispatcher. It runs
// at most once; failures are sticky.
func (h *Host) init() error {
	h.initOnce.Do(func() {
		defer func() {
			if h.initErr != nil && h.onBuildFail != nil {
				h.onBuildFail()
			}
		}()
		m, err := h.build()
		if err == nil {
			// Fault-injection point: tests force deterministic build
			// failures here to exercise the sticky-failure and
			// build-counter paths without crafting a broken model.
			err = faultinject.Inject(context.Background(), faultinject.ServeBuild, h.name)
		}
		if err != nil {
			h.initErr = fmt.Errorf("serve: building model %q: %w", h.name, err)
			return
		}
		if m == nil {
			h.initErr = fmt.Errorf("serve: building model %q: builder returned nil", h.name)
			return
		}
		h.model = m
		for _, name := range m.InputNames() {
			shape, err := m.InputShape(name)
			if err != nil {
				h.initErr = err
				return
			}
			h.inSpecs = append(h.inSpecs, TensorSpec{Name: name, Shape: shape})
		}
		for _, name := range m.OutputNames() {
			shape, err := m.OutputShape(name)
			if err != nil {
				h.initErr = err
				return
			}
			h.outSpecs = append(h.outSpecs, TensorSpec{Name: name, Shape: shape})
		}
		h.outNames = m.OutputNames()
		sort.Strings(h.outNames)
		h.initBatching()
		h.resPool.New = func() any { return h.newResult() }
		h.inPool.New = func() any { return h.newPredictInputs() }
		h.calls = make(chan *call, h.cfg.Queue)
		h.registerModelMetrics()
		go h.dispatch()
		h.started.Store(true)
	})
	return h.initErr
}

// initBatching compiles the batch-capacity variant and verifies batching
// is semantically invisible; any failure records the reason and falls back
// to per-request execution.
func (h *Host) initBatching() {
	if h.cfg.MaxBatch <= 1 {
		h.batchOff = "batch capacity 1"
		return
	}
	bm, err := h.model.CompileBatch(h.cfg.MaxBatch)
	if err != nil {
		h.batchOff = fmt.Sprintf("not batchable: %v", err)
		return
	}
	if err := verifyBatchParity(h.model, bm); err != nil {
		h.batchOff = fmt.Sprintf("parity check failed: %v", err)
		return
	}
	h.batch = bm
}

// verifyBatchParity runs two deterministic random requests through one
// coalesced batch and through sequential Runner.Run calls and requires
// bit-identical outputs — the semantic guard the structural batch check
// cannot provide (and, for shape-only models whose weights carry no data,
// the point where batching fails closed into per-request mode).
func verifyBatchParity(m *dnnfusion.Model, bm *dnnfusion.BatchModel) error {
	runner := m.NewRunner()
	defer runner.Release()
	br := bm.NewRunner()
	defer br.Release()
	ctx := context.Background()
	reqs := make([]map[string]*dnnfusion.Tensor, 2)
	for i := range reqs {
		req := map[string]*dnnfusion.Tensor{}
		for j, name := range m.InputNames() {
			shape, err := m.InputShape(name)
			if err != nil {
				return err
			}
			req[name] = dnnfusion.NewTensor(shape...).Rand(uint64(1000*i + j + 1))
		}
		reqs[i] = req
	}
	got, err := br.RunBatch(ctx, reqs)
	if err != nil {
		return err
	}
	for i, req := range reqs {
		want, err := runner.Run(ctx, req)
		if err != nil {
			return err
		}
		for name, w := range want {
			g := got[i][name]
			if g == nil {
				return fmt.Errorf("request %d missing output %q", i, name)
			}
			gd, wd := g.Data(), w.Data()
			for k := range wd {
				if gd[k] != wd[k] {
					return fmt.Errorf("request %d output %q element %d: batched %v != sequential %v",
						i, name, k, gd[k], wd[k])
				}
			}
		}
	}
	return nil
}

// newResult allocates a result with one owned tensor per model output.
func (h *Host) newResult() *Result {
	outs := make(map[string]*dnnfusion.Tensor, len(h.outSpecs))
	for _, spec := range h.outSpecs {
		outs[spec.Name] = dnnfusion.NewTensor(spec.Shape...)
	}
	return &Result{outs: outs}
}

// validate checks a direct caller's request against the model's input specs
// with the same error taxonomy as Runner.Run, before the request ever enters
// the queue — a malformed request never poisons a batch. (A :predict body is
// refused by its decoder, with these same errors, and arrives valid by
// construction.)
func (h *Host) validate(inputs map[string]*dnnfusion.Tensor) error {
	for name, t := range inputs {
		spec := h.inSpec(name)
		if spec == nil {
			return h.errUnknownInput(name)
		}
		if t == nil {
			return fmt.Errorf("%w: %q fed a nil tensor", dnnfusion.ErrMissingInput, name)
		}
		if !t.Shape().Equal(spec.Shape) {
			return errShape(spec, t.Shape())
		}
	}
	for _, spec := range h.inSpecs {
		if _, ok := inputs[spec.Name]; !ok {
			return errMissingInput(spec.Name)
		}
	}
	return nil
}

// The refusals validate and the :predict decoder share.

func (h *Host) errUnknownInput(name string) error {
	return fmt.Errorf("%w: %q (model inputs: %v)", dnnfusion.ErrUnknownInput, name, h.model.InputNames())
}

func errMissingInput(name string) error {
	return fmt.Errorf("%w: %q", dnnfusion.ErrMissingInput, name)
}

// errShape copies got: the decoder passes its scratch shape.
func errShape(spec *TensorSpec, got dnnfusion.Shape) error {
	return &dnnfusion.ShapeError{Input: spec.Name, Want: dnnfusion.Shape(spec.Shape).Clone(), Got: got.Clone()}
}

func (h *Host) inSpec(name string) *TensorSpec {
	for i := range h.inSpecs {
		if h.inSpecs[i].Name == name {
			return &h.inSpecs[i]
		}
	}
	return nil
}

// Run executes one request through the host's dynamic batcher: the call
// coalesces with whatever else is queued or inbound (up to MaxBatch peers,
// waiting at most the current coalescing delay, and not at all when no one
// else is on the way) and returns its own outputs as a
// pooled Result — Release it when done. Input data is copied before Run
// returns, so the caller may reuse fed tensors immediately.
//
// Admission is bounded: a full queue sheds immediately (the error wraps
// dnnfusion.ErrOverloaded — nothing was queued, retry after backoff), and
// the registry-wide in-flight ceiling sheds with ErrSaturated. The
// caller's deadline travels with the request: a context already done on
// arrival is rejected without queueing, a call whose deadline passes while
// queued is dropped before batch formation (the caller gets ctx.Err(),
// never a wasted inference), and execution itself runs under the earliest
// live deadline in the batch.
//
// Errors wrap dnnfusion.ErrUnknownInput, ErrMissingInput, ErrShapeMismatch
// (as *ShapeError) for malformed requests, dnnfusion.ErrOverloaded when
// shed, ErrClosed after eviction, and ctx.Err() when the context expires
// first.
func (h *Host) Run(ctx context.Context, inputs map[string]*dnnfusion.Tensor) (*Result, error) {
	if err := h.init(); err != nil {
		h.st.requests.Inc()
		h.st.errors.Inc()
		return nil, err
	}
	if err := h.validate(inputs); err != nil {
		h.st.requests.Inc()
		h.st.errors.Inc()
		return nil, err
	}
	h.inbound.Add(1)
	start := time.Now()
	return h.run(ctx, inputs, start, start)
}

// run is Run on a built host from admission (start) on, for a caller that
// has validated the request and counted it inbound; begin is when the
// request first reached that caller (the Timeline's decode stage runs from it
// to start). The inbound count passes to the dispatcher with the call; a
// request that fails before it is queued gives it back here.
func (h *Host) run(ctx context.Context, inputs map[string]*dnnfusion.Tensor, begin, start time.Time) (*Result, error) {
	queued := false
	defer func() {
		if !queued {
			h.inbound.Add(-1)
		}
	}()
	if err := ctx.Err(); err != nil {
		// Dead on arrival: the client's deadline has already passed (or it
		// canceled), so admitting the request could only waste capacity
		// the live traffic needs.
		h.st.requests.Inc()
		h.st.errors.Inc()
		h.st.expired.Inc()
		return nil, err
	}
	if h.limiter != nil {
		if !h.limiter.acquire() {
			// Counted registry-wide (Registry.Saturated), not in the
			// per-host shed counter: the host's own queue was not the
			// bottleneck.
			h.st.requests.Inc()
			h.st.errors.Inc()
			return nil, ErrSaturated
		}
		defer h.limiter.release()
	}
	// Register as pending before enqueueing: close() flips closing before
	// signaling the dispatcher, and the dispatcher's drain runs until
	// pending returns to zero, so once the Add below succeeds a response
	// (possibly ErrClosed) is guaranteed.
	h.pending.Add(1)
	if h.closing.Load() {
		h.pending.Add(-1)
		h.st.requests.Inc()
		h.st.errors.Inc()
		return nil, ErrClosed
	}
	c := callPool.Get().(*call)
	c.ctx, c.inputs, c.res, c.err = ctx, inputs, nil, nil
	c.start, c.enq = start, time.Now()
	c.deq, c.execStart, c.execNs, c.batchSize = time.Time{}, time.Time{}, 0, 0
	select {
	case h.calls <- c:
		queued = true
	default:
		// Admission control: the queue is at capacity. Fail fast instead
		// of blocking — under overload a blocked caller is latency the
		// client has already given up on, and an unbounded queue is how a
		// server collapses instead of shedding.
		h.pending.Add(-1)
		c.ctx, c.inputs = nil, nil
		callPool.Put(c)
		h.st.requests.Inc()
		h.st.errors.Inc()
		if h.closing.Load() {
			return nil, ErrClosed
		}
		h.st.shed.Inc()
		return nil, fmt.Errorf("serve: model %q: queue full (capacity %d): %w",
			h.name, h.cfg.Queue, dnnfusion.ErrOverloaded)
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		// The dispatcher still owns c; abandon it (the call object is
		// garbage collected, never pooled, so the late token is harmless).
		h.pending.Add(-1)
		h.st.requests.Inc()
		h.st.errors.Inc()
		return nil, ctx.Err()
	}
	h.pending.Add(-1)
	res, err := c.res, c.err
	enq, deq, execStart, execNs, bsz := c.enq, c.deq, c.execStart, c.execNs, c.batchSize
	c.ctx, c.inputs, c.res, c.err = nil, nil, nil, nil
	callPool.Put(c)
	h.st.requests.Inc()
	elapsed := time.Since(start)
	h.st.latency.Observe(elapsed.Seconds())
	if err != nil {
		h.st.errors.Inc()
		return nil, err
	}
	wait := deq.Sub(enq)
	h.st.queueWait.Observe(wait.Seconds())
	res.tl = Timeline{
		BatchSize:   bsz,
		DecodeNs:    start.Sub(begin).Nanoseconds(),
		AdmissionNs: enq.Sub(start).Nanoseconds(),
		QueueWaitNs: wait.Nanoseconds(),
		BatchFormNs: execStart.Sub(deq).Nanoseconds(),
		ExecuteNs:   execNs,
		TotalNs:     elapsed.Nanoseconds(),
	}
	return res, nil
}

// close shuts the host down: the dispatcher drains and fails pending
// requests with ErrClosed and drops its serving arenas. closing flips
// first so no new Run can slip past the drain, and the shutdown context
// is canceled so an in-flight batch stops between kernels.
func (h *Host) close() {
	h.closeOnce.Do(func() {
		h.closing.Store(true)
		if h.cancel != nil {
			h.cancel()
		}
		close(h.closed)
	})
}
