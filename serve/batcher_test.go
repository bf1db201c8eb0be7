package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dnnfusion"

	"dnnfusion/internal/models"
)

// TestHostRunMatchesRunnerBitExact pins the serving-path contract: a
// request through the host (validation, queue, batcher, pooled result)
// returns exactly what a direct Runner.Run returns.
func TestHostRunMatchesRunnerBitExact(t *testing.T) {
	for _, spec := range []struct {
		name  string
		build func() *dnnfusion.Graph
	}{
		{"micro-mlp", models.MicroMLP},
		{"micro-cnn", models.MicroCNN},
		{"micro-attention", models.MicroAttention}, // per-request fallback path
	} {
		t.Run(spec.name, func(t *testing.T) {
			m := compileMicro(t, spec.build)
			r := NewRegistry()
			defer r.Close()
			h, err := r.Register(spec.name, m, Config{MaxBatch: 4, MaxDelay: 100 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			runner := m.NewRunner()
			ctx := context.Background()
			for i := 0; i < 5; i++ {
				req := microRequest(t, m, uint64(10+i))
				res, err := h.Run(ctx, req)
				if err != nil {
					t.Fatalf("host run %d: %v", i, err)
				}
				want, err := runner.Run(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				for name, w := range want {
					g := res.Output(name)
					if g == nil {
						t.Fatalf("missing output %q", name)
					}
					for k, wv := range w.Data() {
						if g.Data()[k] != wv {
							t.Fatalf("output %q element %d: served %v != direct %v", name, k, g.Data()[k], wv)
						}
					}
				}
				res.Release()
			}
		})
	}
}

// TestHostCoalescesConcurrentRequests builds a batch deterministically — one
// execution is held while every other client queues behind it, then released
// — and requires that the queued clients ran as one coalesced batch while
// each still got its own answer, bit-identical to a sequential run.
func TestHostCoalescesConcurrentRequests(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 8, MaxDelay: 50 * time.Millisecond, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the host (builds model, starts dispatcher) before the burst.
	res, err := h.Run(context.Background(), microRequest(t, m, 999))
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	client := func(c int) {
		defer wg.Done()
		req := microRequest(t, m, uint64(c))
		want, err := m.NewRunner().Run(context.Background(), req)
		if err != nil {
			errs[c] = err
			return
		}
		res, err := h.Run(context.Background(), req)
		if err != nil {
			errs[c] = err
			return
		}
		defer res.Release()
		for name, w := range want {
			for k, wv := range w.Data() {
				if res.Output(name).Data()[k] != wv {
					errs[c] = errors.New("coalesced result differs from direct run")
					return
				}
			}
		}
	}
	entered, release := blockExecute(t)
	wg.Add(clients)
	go client(0)
	<-entered // client 0 is executing, alone, and held
	for c := 1; c < clients; c++ {
		go client(c)
	}
	waitQueueDepth(t, h, clients-1)
	close(release)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up, the held client, and everyone who queued behind it.
	if info.Stats.Batches != 3 || info.Stats.MaxBatch != clients-1 {
		t.Fatalf("queued clients did not run as one batch: %d batches, max batch %d, mean %.2f",
			info.Stats.Batches, info.Stats.MaxBatch, info.Stats.MeanBatch)
	}
	if info.Stats.Requests != clients+1 {
		t.Fatalf("stats counted %d requests, want %d", info.Stats.Requests, clients+1)
	}
}

// TestFillDeadlineFromFirstEnqueue pins what the coalescing delay is counted
// from: a call that sat queued behind a running batch for longer than
// MaxDelay has done its waiting, so with a peer still inbound it is
// dispatched at once instead of waiting a further MaxDelay.
func TestFillDeadlineFromFirstEnqueue(t *testing.T) {
	const maxDelay = 100 * time.Millisecond
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 4, MaxDelay: maxDelay, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	req := microRequest(t, m, 1)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	entered, release := blockExecute(t)
	first := make(chan error, 1)
	go func() {
		res, err := h.Run(context.Background(), req)
		if err == nil {
			res.Release()
		}
		first <- err
	}()
	<-entered
	type outcome struct {
		tl  Timeline
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := h.Run(context.Background(), req)
		if err != nil {
			second <- outcome{err: err}
			return
		}
		defer res.Release()
		second <- outcome{tl: res.Timeline()}
	}()
	waitQueueDepth(t, h, 1)
	// A third request is on its way: its handler has resolved the host and
	// is still reading its body.
	h.inbound.Add(1)
	defer h.inbound.Add(-1)
	time.Sleep(maxDelay + maxDelay/4) // hold the execution past the second call's whole delay
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	got := <-second
	if got.err != nil {
		t.Fatal(got.err)
	}
	if wait := time.Duration(got.tl.QueueWaitNs); wait < maxDelay {
		t.Fatalf("second call queued for %v, want it held past MaxDelay %v", wait, maxDelay)
	}
	if form := time.Duration(got.tl.BatchFormNs); form > maxDelay/2 {
		t.Fatalf("second call spent %v forming a batch after queueing %v: its delay was counted from the dequeue, not from its enqueue",
			form, time.Duration(got.tl.QueueWaitNs))
	}
	if got.tl.BatchSize != 1 {
		t.Fatalf("batch size %d, want 1 (the inbound peer never arrived)", got.tl.BatchSize)
	}
}

// TestFillDeadlineNotArmedForLoneRequest: with no other request inbound the
// coalescing wait buys nothing and is skipped, whatever MaxDelay says.
func TestFillDeadlineNotArmedForLoneRequest(t *testing.T) {
	const maxDelay = 200 * time.Millisecond
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 4, MaxDelay: maxDelay, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := h.Run(context.Background(), microRequest(t, m, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tl := res.Timeline()
		res.Release()
		if form := time.Duration(tl.BatchFormNs); form > maxDelay/2 {
			t.Fatalf("lone request %d waited %v for peers that were not on their way", i, form)
		}
	}
	if n := h.inbound.Load(); n != 0 {
		t.Fatalf("inbound count %d after every request was answered, want 0", n)
	}
}

// TestNegativeMaxDelayIsNoWait: a negative MaxDelay means "no wait" and is
// held and reported as a wait of 0, not as a negative duration.
func TestNegativeMaxDelayIsNoWait(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 4, MaxDelay: -time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(context.Background(), microRequest(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxDelayUs != 0 || h.cfg.MaxDelay != 0 {
		t.Fatalf("MaxDelay -1ms held as %v, reported as %dus; want 0 and 0", h.cfg.MaxDelay, info.MaxDelayUs)
	}
}

// TestHostFallsBackForUnbatchableModel: micro-attention fails the
// structural batch check; the host must record why and serve per-request.
func TestHostFallsBackForUnbatchableModel(t *testing.T) {
	m := compileMicro(t, models.MicroAttention)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("attn", m, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Batchable {
		t.Fatal("micro-attention reported batchable")
	}
	if info.MaxBatch != 1 {
		t.Fatalf("effective MaxBatch %d, want 1", info.MaxBatch)
	}
	if !strings.Contains(info.BatchDisabledReason, "not batchable") {
		t.Fatalf("reason %q does not explain the structural rejection", info.BatchDisabledReason)
	}
	res, err := h.Run(context.Background(), microRequest(t, m, 3))
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	res.Release()
}

// TestHostParityCheckCatchesRowMixing registers a model that passes the
// structural batch check (softmax over axis 0 is shape-preserving) but
// mixes rows semantically. The registration-time parity check must catch
// it, disable batching, and keep serving correct per-request results.
func TestHostParityCheckCatchesRowMixing(t *testing.T) {
	g := dnnfusion.NewGraph("axis0")
	x := g.AddInput("x", dnnfusion.ShapeOf(4, 4))
	g.MarkOutputAs("y", g.Apply1(dnnfusion.Softmax(0), x))
	m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("axis0", m, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Batchable {
		t.Fatal("row-mixing model reported batchable — the parity check missed it")
	}
	if !strings.Contains(info.BatchDisabledReason, "parity") {
		t.Fatalf("reason %q does not mention the parity check", info.BatchDisabledReason)
	}
	req := microRequest(t, m, 7)
	res, err := h.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	want, err := m.NewRunner().Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for k, wv := range want["y"].Data() {
		if res.Output("y").Data()[k] != wv {
			t.Fatalf("fallback output element %d differs", k)
		}
	}
}

func TestHostValidationErrors(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := h.Run(ctx, map[string]*dnnfusion.Tensor{"bogus": dnnfusion.Rand(1)}); !errors.Is(err, dnnfusion.ErrUnknownInput) {
		t.Errorf("unknown input: %v", err)
	}
	if _, err := h.Run(ctx, map[string]*dnnfusion.Tensor{}); !errors.Is(err, dnnfusion.ErrMissingInput) {
		t.Errorf("missing input: %v", err)
	}
	var se *dnnfusion.ShapeError
	if _, err := h.Run(ctx, map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(2, 2)}); !errors.As(err, &se) {
		t.Errorf("bad shape: %v, want *ShapeError", err)
	}
	info, _ := h.Info()
	if info.Stats.Errors != 3 {
		t.Errorf("error counter %d, want 3", info.Stats.Errors)
	}
}

func TestHostRunHonorsContext(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	defer r.Close()
	h, err := r.Register("mlp", m, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Run(ctx, microRequest(t, m, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run = %v, want context.Canceled", err)
	}
}

// TestHostCloseCancelsInFlightBatch pins the shutdown-context plumbing:
// eviction cancels the per-host context (so a batch in flight stops between
// kernels instead of running to completion against a dead host), and any
// request failed that way surfaces ErrClosed — never a bare
// context.Canceled, which would leak the mechanism to clients and differ
// from what drained-but-unexecuted requests see.
func TestHostCloseCancelsInFlightBatch(t *testing.T) {
	m := compileMicro(t, models.MicroMLP)
	r := NewRegistry()
	h, err := r.Register("mlp", m, Config{MaxBatch: 4, MaxDelay: 200 * time.Microsecond, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: build the model and start the dispatcher before the flood.
	res, err := h.Run(context.Background(), microRequest(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if h.ctx.Err() != nil {
		t.Fatalf("shutdown context done before close: %v", h.ctx.Err())
	}

	const clients, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				res, err := h.Run(context.Background(), microRequest(t, m, uint64(c*rounds+i)))
				if err != nil {
					errs[c] = err
					return
				}
				res.Release()
			}
		}(c)
	}
	close(start)
	// Evict while the flood is mid-flight: some requests complete, some are
	// interrupted by the context cancel, some drain unexecuted.
	if !r.Evict("mlp") {
		t.Fatal("evict reported model not registered")
	}
	wg.Wait()

	if !errors.Is(h.ctx.Err(), context.Canceled) {
		t.Fatalf("shutdown context after close: %v, want context.Canceled", h.ctx.Err())
	}
	for c, err := range errs {
		if err == nil {
			continue // finished all rounds before eviction landed
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("client %d: error %v, want ErrClosed", c, err)
		}
	}
}

// TestServeParallelClientsRace floods one host from many goroutines with
// mixed batchable and fallback models; run under -race this pins the
// dispatcher's lane discipline end to end. (The name matches the CI race
// step's -run pattern.)
func TestServeParallelClientsRace(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	mlp := compileMicro(t, models.MicroMLP)
	attn := compileMicro(t, models.MicroAttention)
	hMLP, err := r.Register("mlp", mlp, Config{MaxBatch: 4, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	hAttn, err := r.Register("attn", attn, Config{MaxBatch: 4, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 8, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, m := hMLP, mlp
			if c%2 == 1 {
				h, m = hAttn, attn
			}
			for i := 0; i < rounds; i++ {
				res, err := h.Run(context.Background(), microRequest(t, m, uint64(c*100+i)))
				if err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				res.Release()
			}
		}(c)
	}
	wg.Wait()
}
