package serve

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"dnnfusion"

	"dnnfusion/internal/faultinject"
	"dnnfusion/internal/obs"
)

// The dynamic batcher: one dispatcher goroutine per host pulls queued
// calls, forms a batch — up to MaxBatch requests, the first waiting at most
// MaxDelay for peers that are on their way — and executes it as a single
// coalesced inference on the batch-compiled model variant, scattering each
// request's output segment into its own pooled Result. Models without a
// batch variant (or batches of one) execute per-request on the base Runner.
// One dispatcher owns both runners, so a host pins at most two serving
// arenas regardless of client concurrency; request-level parallelism comes
// from coalescing, and intra-kernel parallelism from the worker pool both
// models share.

// dispatch is the host's dispatcher loop. It owns the only Runner and
// BatchRunner of the host and exits when the host closes.
func (h *Host) dispatch() {
	runner := h.model.NewRunner()
	var br *dnnfusion.BatchRunner
	if h.batch != nil {
		br = h.batch.NewRunner()
	}
	if h.cfg.Prewarm {
		runner.Warm()
		if br != nil {
			br.Warm()
		}
	}
	defer func() {
		runner.Release()
		if br != nil {
			br.Release()
		}
	}()
	batch := make([]*call, 0, h.cfg.MaxBatch)
	reqs := make([]map[string]*dnnfusion.Tensor, h.cfg.MaxBatch)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case c := <-h.calls:
			batch = h.fill(append(batch[:0], h.dequeued(c)), timer)
			if live := h.dropExpired(batch); len(live) > 0 {
				h.execute(runner, br, live, reqs)
			}
			for i := range batch {
				batch[i] = nil
			}
		case <-h.closed:
			h.drainClosed()
			return
		}
	}
}

// dropExpired fails calls whose context is already done before any kernel
// runs for them: the client has given up (deadline passed or canceled), so
// executing them would burn capacity live traffic needs. This is the
// deadline-propagation guarantee — an expired call never reaches execute —
// and the expired counter is its observable. Returns the live calls,
// compacted in place.
func (h *Host) dropExpired(batch []*call) []*call {
	live := batch[:0]
	for _, c := range batch {
		err := c.ctx.Err()
		if err == nil {
			live = append(live, c)
			continue
		}
		h.st.expired.Inc()
		c.err = err
		c.done <- struct{}{}
	}
	return live
}

// dequeued stamps a call the dispatcher just pulled off the queue and takes
// it out of the inbound count.
func (h *Host) dequeued(c *call) *call {
	c.deq = time.Now()
	h.inbound.Add(-1)
	return c
}

// fill grows a just-started batch: it drains whatever is already queued
// and, when capacity and configuration allow, waits for more — but only
// while some request is inbound (no one else on the way: the wait would buy
// nothing), and only for what is left of the coalescing delay counted from
// when the batch's first member was queued (the time it spent queued behind
// a running batch was its wait for peers). Closing the host cuts the wait
// short (the collected batch still executes; drainClosed handles the rest).
func (h *Host) fill(batch []*call, timer *time.Timer) []*call {
	max := h.cfg.MaxBatch
	if h.batch == nil {
		// Per-request execution gains nothing from waiting, but draining
		// the queue lets one wake of this goroutine serve many requests.
		max = cap(batch)
	}
	for len(batch) < max {
		select {
		case c := <-h.calls:
			batch = append(batch, h.dequeued(c))
			continue
		default:
		}
		break
	}
	if h.batch == nil || len(batch) >= max || h.inbound.Load() == 0 {
		return batch
	}
	left := h.cfg.MaxDelay - time.Since(batch[0].enq)
	if left <= 0 {
		return batch
	}
	timer.Reset(left)
collect:
	for len(batch) < max && h.inbound.Load() > 0 {
		select {
		case c := <-h.calls:
			batch = append(batch, h.dequeued(c))
		case <-timer.C:
			return batch
		case <-h.closed:
			break collect
		}
	}
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	return batch
}

// execute runs one formed batch and delivers per-call results. Requests
// were validated before enqueueing, so shape-level errors cannot occur
// here; an execution error fails every call in the batch. Execution runs
// under the host's shutdown context bounded by the earliest live request
// deadline in the batch — closing the host interrupts an in-flight batch
// between kernels (those calls report ErrClosed, like drained ones), and a
// batch that outlives its tightest deadline stops instead of finishing
// work that client will never read.
func (h *Host) execute(runner *dnnfusion.Runner, br *dnnfusion.BatchRunner, batch []*call, reqs []map[string]*dnnfusion.Tensor) {
	ctx := h.ctx
	if dl, ok := earliestDeadline(batch); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(h.ctx, dl)
		defer cancel()
	}
	n := len(batch)
	h.st.batches.Inc()
	h.st.batched.Add(uint64(n))
	h.st.observeBatch(n)
	h.st.batchSize.Observe(float64(n))
	for _, c := range batch {
		c.batchSize = n
	}
	if faultinject.Active() {
		// Fault-injection point: force slow or failing executions, or hold
		// the batch in flight against ctx. The batch slice rides along for
		// in-package tests that account per-call executions.
		if err := faultinject.Inject(ctx, faultinject.ServeExecute, h.name, n, batch); err != nil {
			for _, c := range batch {
				c.err = h.callErr(c, err)
			}
			deliverDone(batch)
			return
		}
	}
	if br != nil && n > 1 {
		for i, c := range batch {
			reqs[i] = c.inputs
		}
		execStart := time.Now()
		results, err := br.RunBatch(ctx, reqs[:n])
		execNs := time.Since(execStart).Nanoseconds()
		h.st.execute.Observe(float64(execNs) / 1e9)
		for i := range reqs[:n] {
			reqs[i] = nil
		}
		if err == nil {
			for i, c := range batch {
				c.execStart, c.execNs = execStart, execNs
				c.res = h.deliver(results[i])
			}
		} else {
			for _, c := range batch {
				c.err = h.callErr(c, err)
			}
		}
	} else {
		for _, c := range batch {
			execStart := time.Now()
			out, err := runner.Run(ctx, c.inputs)
			if err != nil {
				c.err = h.callErr(c, err)
				continue
			}
			c.execStart, c.execNs = execStart, time.Since(execStart).Nanoseconds()
			h.st.execute.Observe(float64(c.execNs) / 1e9)
			c.res = h.deliver(out)
		}
	}
	deliverDone(batch)
}

func deliverDone(batch []*call) {
	for _, c := range batch {
		c.done <- struct{}{}
	}
}

// earliestDeadline finds the soonest deadline among a batch's calls (they
// are all live — dropExpired ran first). ok is false when no call carries
// a deadline, so deadline-free traffic pays no context allocation.
func earliestDeadline(batch []*call) (dl time.Time, ok bool) {
	for _, c := range batch {
		if d, has := c.ctx.Deadline(); has && (!ok || d.Before(dl)) {
			dl, ok = d, true
		}
	}
	return dl, ok
}

// callErr maps a batch-level execution error onto one call. A call whose
// own context is done reports its own ctx.Err() (its deadline or cancel is
// the real cause, even if the batch error spells it differently); the rest
// see the batch error, with shutdown-cancel spelled as ErrClosed.
func (h *Host) callErr(c *call, err error) error {
	if cerr := c.ctx.Err(); cerr != nil {
		return cerr
	}
	return h.closeErr(err)
}

// closeErr maps execution errors caused by the shutdown-context cancel to
// ErrClosed — a call interrupted mid-batch by eviction should see the same
// error as one failed by the drain, not a bare context.Canceled.
func (h *Host) closeErr(err error) error {
	if h.closing.Load() && errors.Is(err, context.Canceled) {
		return ErrClosed
	}
	return err
}

// deliver copies one request's output set into a pooled Result, detaching
// it from the runner's double buffer so the next batch cannot overwrite a
// result a client is still reading.
func (h *Host) deliver(outs map[string]*dnnfusion.Tensor) *Result {
	res := h.resPool.Get().(*Result)
	res.h = h
	for name, src := range outs {
		copy(res.outs[name].Data(), src.Data())
	}
	return res
}

// drainClosed fails queued calls with ErrClosed after close. It returns
// only when no Run call is still pending, so a request that won the
// enqueue race against eviction is still answered instead of stranding in
// a queue nothing reads.
func (h *Host) drainClosed() {
	for {
		select {
		case c := <-h.calls:
			h.dequeued(c).err = ErrClosed
			c.done <- struct{}{}
		default:
			if h.pending.Load() == 0 {
				return
			}
			runtime.Gosched() // a Run is between its closing-check and enqueue
		}
	}
}

// stats are the host's serving counters. The counting instruments live on
// the repository's obs.Registry (wired by stats.init at registration) so
// /healthz, /v1/models, and /metrics read one source of truth; only the
// max-batch high-water mark stays a plain atomic — it is not
// Prometheus-shaped.
type stats struct {
	requests *obs.Counter
	errors   *obs.Counter
	// shed counts requests rejected by this host's admission control (a
	// full queue); expired counts requests whose context was done before
	// execution (dead on arrival, or dropped from the queue by the
	// dispatcher). Both are subsets of errors.
	shed    *obs.Counter
	expired *obs.Counter

	batches  *obs.Counter
	batched  *obs.Counter
	maxBatch atomic.Uint64

	// latency is the admission-to-result request histogram (in seconds);
	// queueWait and execute split it into the queue and inference stages,
	// and batchSize records coalesced batch sizes.
	latency   *obs.Histogram
	queueWait *obs.Histogram
	execute   *obs.Histogram
	batchSize *obs.Histogram
	// decode and encode are the :predict codec's two halves: handler entry
	// to input tensors ready, and building the response body.
	decode *obs.Histogram
	encode *obs.Histogram
}

func (s *stats) observeBatch(n int) {
	for {
		cur := s.maxBatch.Load()
		if uint64(n) <= cur || s.maxBatch.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of a host's serving counters.
type Stats struct {
	// Requests counts completed Run calls (including failed ones);
	// Errors the failed subset. Shed counts requests rejected by a full
	// queue (the 429 path); Expired counts requests whose deadline passed
	// or context was canceled before any execution happened (dead on
	// arrival or dropped from the queue — provably never executed).
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Shed     uint64 `json:"shed"`
	Expired  uint64 `json:"expired"`
	// Batches counts executed batches; MeanBatch is the mean number of
	// requests coalesced per batch and MaxBatch the largest batch
	// observed.
	Batches   uint64  `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int     `json:"max_batch"`
	// MeanLatencyUs is the mean request latency (enqueue to result) in
	// microseconds, over successfully executed requests.
	MeanLatencyUs float64 `json:"mean_latency_us"`
}

func (s *stats) snapshot() Stats {
	out := Stats{
		Requests: s.requests.Value(),
		Errors:   s.errors.Value(),
		Shed:     s.shed.Value(),
		Expired:  s.expired.Value(),
		Batches:  s.batches.Value(),
		MaxBatch: int(s.maxBatch.Load()),
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(s.batched.Value()) / float64(out.Batches)
	}
	if n := s.latency.Count(); n > 0 {
		out.MeanLatencyUs = s.latency.Sum() / float64(n) * 1e6
	}
	return out
}

// TensorSpec describes one named model input or output.
type TensorSpec struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape"`
}

// Info is a host's serving metadata: the model's I/O specs, memory plan,
// batching posture, and counters.
type Info struct {
	Name    string       `json:"name"`
	Inputs  []TensorSpec `json:"inputs"`
	Outputs []TensorSpec `json:"outputs"`
	// PlannedPeakBytes is the base model's per-session activation arena;
	// BatchPlannedPeakBytes the batch-capacity variant's (0 when batching
	// is off).
	PlannedPeakBytes      int64 `json:"planned_peak_bytes"`
	BatchPlannedPeakBytes int64 `json:"batch_planned_peak_bytes,omitempty"`
	// MaxBatch is the effective coalescing capacity (1 when batching is
	// off); BatchDisabledReason says why when it is off.
	MaxBatch            int    `json:"max_batch"`
	MaxDelayUs          int64  `json:"max_delay_us"`
	Batchable           bool   `json:"batchable"`
	BatchDisabledReason string `json:"batch_disabled_reason,omitempty"`
	// Overload-control state: the live queue depth and its capacity
	// (admission sheds beyond it).
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Stats         Stats `json:"stats"`
}

// controlState is the point-in-time overload-control view of a loaded
// host, shared by Info and /healthz (which must not force lazy builds).
func (h *Host) controlState(info *Info) {
	if !h.started.Load() {
		return
	}
	info.QueueDepth = len(h.calls)
	info.QueueCapacity = h.cfg.Queue
}

// Info returns the host's serving metadata, building the model first if it
// is lazy.
func (h *Host) Info() (Info, error) {
	if err := h.init(); err != nil {
		return Info{}, err
	}
	info := Info{
		Name:             h.name,
		Inputs:           h.inSpecs,
		Outputs:          h.outSpecs,
		PlannedPeakBytes: h.model.PlannedPeakBytes(),
		MaxBatch:         1,
		MaxDelayUs:       h.cfg.MaxDelay.Microseconds(),
		Batchable:        h.batch != nil,
		Stats:            h.st.snapshot(),
	}
	if h.batch != nil {
		info.MaxBatch = h.cfg.MaxBatch
		info.BatchPlannedPeakBytes = h.batch.PlannedPeakBytes()
	} else {
		info.BatchDisabledReason = h.batchOff
	}
	h.controlState(&info)
	return info, nil
}

// Loaded reports whether the host's model has been built (lazy builders
// run on first use), without forcing the build.
func (h *Host) Loaded() bool {
	return h.started.Load()
}
