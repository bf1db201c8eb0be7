package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnnfusion"

	"dnnfusion/internal/faultinject"
	"dnnfusion/internal/models"
)

// Overload-safety suite: bounded admission, deadline propagation, and the
// fault-injection hooks that make the shed/drain paths deterministically
// testable. Tests here arm process-global faultinject hooks, so none of
// them run in parallel.

// blockExecute arms a ServeExecute hook that signals entry of the first
// batch and holds it until release is closed; later batches pass straight
// through. It lets a test pin the dispatcher mid-execution and build
// queue state behind it deterministically.
func blockExecute(t *testing.T) (entered, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 1)
	release = make(chan struct{})
	var first sync.Once
	faultinject.Set(faultinject.ServeExecute, func(ctx context.Context, args ...any) error {
		blocked := false
		first.Do(func() {
			entered <- struct{}{}
			<-release
			blocked = true
		})
		_ = blocked
		return nil
	})
	t.Cleanup(faultinject.Reset)
	return entered, release
}

// waitQueueDepth polls until the host's queue holds want calls.
func waitQueueDepth(t *testing.T, h *Host, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(h.calls) != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", len(h.calls), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestHostShedsWhenQueueFull pins bounded admission: with the dispatcher
// pinned mid-batch and the queue at capacity, the next Run fails fast with
// an error wrapping dnnfusion.ErrOverloaded — it neither blocks nor
// queues — and the shed counter records it.
func TestHostShedsWhenQueueFull(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 1, Queue: 1, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	// Warm before arming the hook: build, start dispatcher.
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	entered, release := blockExecute(t)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { // occupies the dispatcher
		defer wg.Done()
		res, err := h.Run(context.Background(), req)
		errs[0] = err
		if err == nil {
			res.Release()
		}
	}()
	<-entered
	wg.Add(1)
	go func() { // fills the queue (capacity 1)
		defer wg.Done()
		res, err := h.Run(context.Background(), req)
		errs[1] = err
		if err == nil {
			res.Release()
		}
	}()
	waitQueueDepth(t, h, 1)

	// Third request: queue full, dispatcher busy — must shed immediately.
	start := time.Now()
	_, err = h.Run(context.Background(), req)
	if !errors.Is(err, dnnfusion.ErrOverloaded) {
		t.Fatalf("full-queue Run = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrSaturated) {
		t.Fatal("queue-full shed reported as registry saturation")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v — admission control must fail fast, not block", elapsed)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted client %d failed: %v", i, err)
		}
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", info.Stats.Shed)
	}
	if info.QueueCapacity != 1 {
		t.Fatalf("queue capacity = %d, want 1", info.QueueCapacity)
	}
}

// TestRegistryMaxInFlightSaturates pins the registry-wide ceiling: with one
// request in flight and the ceiling at 1, a second request — even against
// another model — sheds with ErrSaturated (which also matches
// ErrOverloaded for callers treating all shedding alike).
func TestRegistryMaxInFlightSaturates(t *testing.T) {
	mlp := compileMicro(t, models.MicroMLP)
	attn := compileMicro(t, models.MicroAttention)
	r := NewRegistry()
	defer r.Close()
	hMLP, err := r.Register("mlp", mlp, Config{MaxBatch: 1, Queue: 4, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	hAttn, err := r.Register("attn", attn, Config{MaxBatch: 1, Queue: 4, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	reqMLP := microRequest(t, mlp, 1)
	reqAttn := microRequest(t, attn, 2)
	// Warm both hosts before arming the hook or the ceiling.
	for _, warm := range []struct {
		h   *Host
		req map[string]*dnnfusion.Tensor
	}{{hMLP, reqMLP}, {hAttn, reqAttn}} {
		res, err := warm.h.Run(context.Background(), warm.req)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	r.SetMaxInFlight(1)
	entered, release := blockExecute(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := hMLP.Run(context.Background(), reqMLP)
		if err != nil {
			t.Errorf("in-flight client: %v", err)
			return
		}
		res.Release()
	}()
	<-entered
	if got := r.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	_, err = hAttn.Run(context.Background(), reqAttn)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-ceiling Run = %v, want ErrSaturated", err)
	}
	if !errors.Is(err, dnnfusion.ErrOverloaded) {
		t.Fatal("ErrSaturated does not wrap dnnfusion.ErrOverloaded")
	}
	if r.Saturated() != 1 {
		t.Fatalf("Saturated() = %d, want 1", r.Saturated())
	}
	close(release)
	wg.Wait()
	if got := r.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
}

// TestExpiredRequestsNeverExecute is the deadline-propagation proof: with
// the dispatcher pinned on one live batch, requests whose deadlines expire
// while queued must be dropped at the next batch formation — observed
// through the ServeExecute hook, which sees every batch that reaches
// execution and must never see an expired call.
func TestExpiredRequestsNeverExecute(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 4, Queue: 8, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	var executedCalls atomic.Int64
	var expiredExecuted atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var first sync.Once
	faultinject.Set(faultinject.ServeExecute, func(ctx context.Context, args ...any) error {
		executedCalls.Add(int64(args[1].(int)))
		for _, c := range args[2].([]*call) {
			if c.ctx.Err() != nil {
				expiredExecuted.Add(1)
			}
		}
		first.Do(func() {
			entered <- struct{}{}
			<-release
		})
		return nil
	})
	t.Cleanup(faultinject.Reset)

	// Pin the dispatcher on one long-lived batch.
	var blocker sync.WaitGroup
	blocker.Add(1)
	go func() {
		defer blocker.Done()
		res, err := h.Run(context.Background(), req)
		if err != nil {
			t.Errorf("blocker: %v", err)
			return
		}
		res.Release()
	}()
	<-entered

	// Six requests with real deadlines pile up behind it and expire there.
	const doomed = 6
	var wg sync.WaitGroup
	errs := make([]error, doomed)
	for i := 0; i < doomed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, errs[i] = h.Run(ctx, microRequest(t, m, uint64(10+i)))
		}(i)
	}
	waitQueueDepth(t, h, doomed)
	wg.Wait() // all six returned DeadlineExceeded while still queued
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("doomed client %d: %v, want DeadlineExceeded", i, err)
		}
	}
	close(release)
	blocker.Wait()

	// One live request flushes the dispatcher through the expired backlog.
	res, err = h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	if got := expiredExecuted.Load(); got != 0 {
		t.Fatalf("%d expired calls reached execute", got)
	}
	// Exactly the blocker and the flush executed; the doomed six never did.
	if got := executedCalls.Load(); got != 2 {
		t.Fatalf("executed %d calls, want 2 (blocker + flush)", got)
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Expired != doomed {
		t.Fatalf("expired counter = %d, want %d", info.Stats.Expired, doomed)
	}
}

// TestDeadOnArrivalNeverQueues: a context already done at Run is rejected
// before admission — no queueing, no in-flight slot, counted as expired.
func TestDeadOnArrivalNeverQueues(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := h.Run(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DOA Run = %v, want DeadlineExceeded", err)
	}
	if depth := len(h.calls); depth != 0 {
		t.Fatalf("DOA request was queued (depth %d)", depth)
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", info.Stats.Expired)
	}
	if r.InFlight() != 0 {
		t.Fatalf("InFlight = %d after DOA rejection", r.InFlight())
	}
}

// TestExecuteRunsUnderEarliestDeadline pins the batch execution context: a
// request carrying a deadline must execute under a context bounded by it,
// so a stuck execution is cut off at the deadline instead of running
// arbitrarily long.
func TestExecuteRunsUnderEarliestDeadline(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 1, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	sawDeadline := make(chan bool, 1)
	faultinject.Set(faultinject.ServeExecute, func(ctx context.Context, args ...any) error {
		_, ok := ctx.Deadline()
		sawDeadline <- ok
		<-ctx.Done() // a stuck kernel: only the deadline can end it
		return ctx.Err()
	})
	t.Cleanup(faultinject.Reset)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = h.Run(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck execution Run = %v, want DeadlineExceeded", err)
	}
	if !<-sawDeadline {
		t.Fatal("batch execution context carried no deadline")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded execution took %v", elapsed)
	}
}

// TestHostCloseCancelsInjectedExecution drives the mid-batch-cancellation
// path deterministically: a batch held in flight by the hook is cut loose
// when the host is evicted, and the caller sees ErrClosed (never a bare
// context.Canceled).
func TestHostCloseCancelsInjectedExecution(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	h, err := r.Register("mlp", m, Config{MaxBatch: 1, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	entered := make(chan struct{}, 1)
	faultinject.Set(faultinject.ServeExecute, func(ctx context.Context, args ...any) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	})
	t.Cleanup(faultinject.Reset)

	done := make(chan error, 1)
	go func() {
		_, err := h.Run(context.Background(), req)
		done <- err
	}()
	<-entered
	r.Evict("mlp")
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("evicted mid-batch Run = %v, want ErrClosed", err)
	}
}

// TestBuildFaultInjection forces a deterministic build failure: the host
// fails sticky, the injected cause is preserved through errors.Is, and the
// registry's build-failure counter records it.
func TestBuildFaultInjection(t *testing.T) {
	boom := errors.New("injected build failure")
	faultinject.Set(faultinject.ServeBuild, func(ctx context.Context, args ...any) error {
		if args[0].(string) != "mlp" {
			t.Errorf("build hook fired for %v", args[0])
		}
		return boom
	})
	t.Cleanup(faultinject.Reset)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", compileMicro(t, models.MicroMLP), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := h.Model(); !errors.Is(err, boom) {
			t.Fatalf("Model() attempt %d = %v, want injected failure", i, err)
		}
	}
	if r.BuildFailures() != 1 {
		t.Fatalf("BuildFailures = %d, want 1", r.BuildFailures())
	}
	if _, err := h.Run(context.Background(), nil); !errors.Is(err, boom) {
		t.Fatalf("Run on injected-failed host = %v", err)
	}
}

// TestExecuteFaultInjectionFailsBatch: an injected execution error fails
// every call in the batch with that error — the erroring-kernel path that
// is otherwise unreachable with the in-tree models.
func TestExecuteFaultInjectionFailsBatch(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 4, MaxDelay: 20 * time.Millisecond, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	boom := errors.New("injected kernel failure")
	faultinject.Set(faultinject.ServeExecute, func(ctx context.Context, args ...any) error { return boom })
	t.Cleanup(faultinject.Reset)
	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = h.Run(context.Background(), microRequest(t, m, uint64(c)))
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("client %d: %v, want injected failure", c, err)
		}
	}
}

// TestHostOverloadSoakRace floods a small-queue host from concurrent
// clients with mixed short/long deadlines, past capacity, with slow
// executions injected. It asserts the overload contract end to end: every
// request gets exactly one terminal outcome, the host sheds (rather than
// queueing unboundedly), all outcomes are from the sanctioned taxonomy,
// counters reconcile, and nothing leaks a goroutine. Run under -race in CI.
func TestHostOverloadSoakRace(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)

	// Throwaway registry exercises one full host lifecycle so lazily
	// started runtime machinery is up before the goroutine baseline.
	warm := NewRegistry()
	hw, err := warm.Register("mlp", m, Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := hw.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	warm.Close()
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	r := NewRegistry()
	h, err := r.Register("mlp", m, Config{
		MaxBatch: 4,
		MaxDelay: 100 * time.Microsecond,
		Queue:    8,
		Prewarm:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	// Slow every batch down so the flood genuinely overruns the queue.
	faultinject.Set(faultinject.ServeExecute, func(ctx context.Context, args ...any) error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	t.Cleanup(faultinject.Reset)

	const clients, rounds = 16, 25
	var completed, shed, deadline atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := microRequest(t, m, uint64(c+2))
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if c%2 == 1 {
					// Short-deadline half: tighter than one slowed batch,
					// so many expire queued or mid-batch.
					ctx, cancel = context.WithTimeout(ctx, 300*time.Microsecond)
				} else {
					ctx, cancel = context.WithTimeout(ctx, time.Second)
				}
				res, err := h.Run(ctx, req)
				switch {
				case err == nil:
					completed.Add(1)
					res.Release()
				case errors.Is(err, dnnfusion.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					deadline.Add(1)
				default:
					t.Errorf("client %d round %d: outcome outside the taxonomy: %v", c, i, err)
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()

	offered := int64(clients * rounds)
	got := completed.Load() + shed.Load() + deadline.Load()
	if got != offered {
		t.Fatalf("outcomes %d != offered %d (completed %d, shed %d, deadline %d)",
			got, offered, completed.Load(), shed.Load(), deadline.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("flood at 4x queue capacity never shed — admission control inert")
	}
	if completed.Load() == 0 {
		t.Fatal("flood starved every request — shedding must protect admitted work, not replace it")
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	// Every Run (including the one warmup on this host) is counted exactly once.
	if want := uint64(offered) + 1; info.Stats.Requests != want {
		t.Fatalf("requests counter %d, want %d", info.Stats.Requests, want)
	}
	if info.Stats.Shed != uint64(shed.Load()) {
		t.Fatalf("shed counter %d != observed %d", info.Stats.Shed, shed.Load())
	}

	r.Close()
	// No goroutine may outlive the registry: dispatcher exits, abandoned
	// calls are answered, nothing blocks forever.
	deadlineT := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadlineT) {
			t.Fatalf("goroutines %d > baseline %d after Close", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Every request that was counted inbound was counted out again — by the
	// dispatcher when it dequeued it (abandoned calls included), or by Run
	// when it was refused first. A leaked count would tax every later batch
	// with a wait for a peer that does not exist.
	if n := h.inbound.Load(); n != 0 {
		t.Fatalf("inbound count %d after the flood drained, want 0", n)
	}
}
