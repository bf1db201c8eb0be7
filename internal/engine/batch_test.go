package engine

import (
	"context"
	"maps"
	"strings"
	"sync"
	"testing"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/tensor"
)

// Batched-session execution suite: RunBatch scatter semantics (bit-exact
// against sequential Runs), partial-batch padding, the zero-allocation
// contract on the batched hot path, Warm, and pool borrowing across
// executors.

// buildBatchPair compiles the MLP at base capacity and at batch capacity n
// (leading axis scaled), the batch executor borrowing the base pool.
func buildBatchPair(t *testing.T, n int) (base *graph.Graph, bx *Executor, bg *graph.Graph, nx *Executor) {
	t.Helper()
	base, e := buildMLP(t)
	plan := fusion.GeneratePlan(e, fusion.Options{})
	var err error
	bx, err = NewExecutor(e, plan, nil)
	if err != nil {
		t.Fatalf("base executor: %v", err)
	}
	bg, err = graph.WithLeadingBatch(base, n)
	if err != nil {
		t.Fatalf("WithLeadingBatch: %v", err)
	}
	be := ecg.Build(bg)
	bplan := fusion.GeneratePlan(be, fusion.Options{})
	nx, err = NewExecutorPool(be, bplan, nil, bx.Pool())
	if err != nil {
		t.Fatalf("batch executor: %v", err)
	}
	return base, bx, bg, nx
}

// segFeeds builds n per-request feed maps for the batch graph's inputs,
// each holding one base-shaped segment, plus the same tensors keyed by the
// base graph's inputs for sequential reference runs.
func segFeeds(baseG, batchG *graph.Graph, n int, seed uint64) (reqs []map[*graph.Value]*tensor.Tensor, refs []map[*graph.Value]*tensor.Tensor) {
	for i := 0; i < n; i++ {
		req := map[*graph.Value]*tensor.Tensor{}
		ref := map[*graph.Value]*tensor.Tensor{}
		for j, in := range batchG.Inputs {
			tns := tensor.NewOf(baseG.Inputs[j].Shape).Rand(seed + uint64(i*31+j))
			req[in] = tns
			ref[baseG.Inputs[j]] = tns
		}
		reqs = append(reqs, req)
		refs = append(refs, ref)
	}
	return reqs, refs
}

func TestRunBatchMatchesSequentialRunsBitExact(t *testing.T) {
	const n = 4
	baseG, bx, batchG, nx := buildBatchPair(t, n)
	reqs, refs := segFeeds(baseG, batchG, n, 11)
	ctx := context.Background()

	bs := nx.NewSession()
	outs, err := bs.RunBatch(ctx, reqs, n)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	ref := bx.NewSession()
	for i := 0; i < n; i++ {
		want, err := ref.Run(ctx, refs[i])
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		for o := range want {
			seg := want[o].NumElements()
			got := outs[o].Data()[i*seg : (i+1)*seg]
			for k, w := range want[o].Data() {
				if got[k] != w {
					t.Fatalf("request %d output %d element %d: batched %v != sequential %v (must be bit-exact)",
						i, o, k, got[k], w)
				}
			}
		}
	}
}

func TestRunBatchPartialPadsWithRequestZero(t *testing.T) {
	const n = 4
	baseG, bx, batchG, nx := buildBatchPair(t, n)
	reqs, refs := segFeeds(baseG, batchG, 2, 23)
	ctx := context.Background()

	outs, err := nx.NewSession().RunBatch(ctx, reqs, n)
	if err != nil {
		t.Fatalf("partial RunBatch: %v", err)
	}
	ref := bx.NewSession()
	want0, err := ref.Run(ctx, refs[0])
	if err != nil {
		t.Fatal(err)
	}
	for o := range want0 {
		seg := want0[o].NumElements()
		data := outs[o].Data()
		// Lanes 2 and 3 replicate request 0.
		for _, lane := range []int{2, 3} {
			got := data[lane*seg : (lane+1)*seg]
			for k, w := range want0[o].Data() {
				if got[k] != w {
					t.Fatalf("padded lane %d output %d element %d: %v, want request 0's %v", lane, o, k, got[k], w)
				}
			}
		}
	}
}

func TestRunBatchZeroAllocSteadyState(t *testing.T) {
	const n = 4
	baseG, _, batchG, nx := buildBatchPair(t, n)
	reqs, _ := segFeeds(baseG, batchG, n, 5)
	ctx := context.Background()
	s := nx.NewSession()
	if _, err := s.RunBatch(ctx, reqs, n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.RunBatch(ctx, reqs, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Session.RunBatch allocates %.1f times per batch, want 0", allocs)
	}
	// Partial batches share the same hot path.
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := s.RunBatch(ctx, reqs[:2], n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed partial RunBatch allocates %.1f times per batch, want 0", allocs)
	}
}

func TestRunBatchRejectsBadBatches(t *testing.T) {
	const n = 2
	baseG, _, batchG, nx := buildBatchPair(t, n)
	reqs, _ := segFeeds(baseG, batchG, n, 3)
	ctx := context.Background()
	s := nx.NewSession()
	if _, err := s.RunBatch(ctx, nil, n); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := s.RunBatch(ctx, append(reqs, reqs[0]), n); err == nil {
		t.Error("over-capacity batch accepted")
	}
	bad := map[*graph.Value]*tensor.Tensor{batchG.Inputs[0]: tensor.New(3)}
	if _, err := s.RunBatch(ctx, []map[*graph.Value]*tensor.Tensor{bad}, n); err == nil {
		t.Error("wrong-sized segment accepted")
	}
}

// TestRunBatchRefusesLikeRun pins the one scatter loop behind Run and
// RunBatch: a missing input, a wrongly shaped segment (the right element
// count in the wrong shape included) and a non-input feed are refused by
// Run and, as request 1 of a batch, by RunBatch, which names the request.
func TestRunBatchRefusesLikeRun(t *testing.T) {
	const n = 2
	baseG, bx, batchG, nx := buildBatchPair(t, n)
	reqs, refs := segFeeds(baseG, batchG, n, 7)
	shape := baseG.Inputs[0].Shape
	transposed := tensor.New(shape[1], shape[0])
	var weight *graph.Value
	for _, v := range batchG.Values {
		if v.Kind == graph.Weight {
			weight = v
			break
		}
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		edit func(req map[*graph.Value]*tensor.Tensor, in *graph.Value)
	}{
		{"missing input", func(req map[*graph.Value]*tensor.Tensor, in *graph.Value) { delete(req, in) }},
		{"wrong shape", func(req map[*graph.Value]*tensor.Tensor, in *graph.Value) { req[in] = tensor.New(3) }},
		{"transposed segment", func(req map[*graph.Value]*tensor.Tensor, in *graph.Value) { req[in] = transposed }},
		{"non-input feed", func(req map[*graph.Value]*tensor.Tensor, in *graph.Value) { req[weight] = weight.Data }},
	} {
		ref := maps.Clone(refs[1])
		c.edit(ref, baseG.Inputs[0])
		if _, err := bx.NewSession().Run(ctx, ref); err == nil {
			t.Errorf("%s: Run accepted it", c.name)
		}
		req := maps.Clone(reqs[1])
		c.edit(req, batchG.Inputs[0])
		_, err := nx.NewSession().RunBatch(ctx, []map[*graph.Value]*tensor.Tensor{reqs[0], req}, n)
		if err == nil || !strings.Contains(err.Error(), "request 1") {
			t.Errorf("%s: RunBatch returned %v, want an error naming request 1", c.name, err)
		}
	}
}

func TestSessionWarmBindsWithoutRunning(t *testing.T) {
	g, x := buildArenaExecutor(t)
	s := x.NewSession()
	if err := s.Warm(); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if err := s.Warm(); err != nil {
		t.Fatalf("second Warm: %v", err)
	}
	// A warmed session's first Run is already on the zero-alloc hot path.
	in := feeds(g, 9)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Run after Warm allocates %.1f times, want 0", allocs)
	}
}

// TestSharedPoolExecutorsRunConcurrently drives sessions of a base
// executor and a pool-borrowing batch executor from concurrent goroutines:
// the dispatch-lock discipline must keep lanes race-free across executors
// (run under -race).
func TestSharedPoolExecutorsRunConcurrently(t *testing.T) {
	base, e := buildMLP(t)
	plan := fusion.GeneratePlan(e, fusion.Options{})
	bx, err := NewExecutorThreads(e, plan, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := graph.WithLeadingBatch(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	be := ecg.Build(bg)
	nx, err := NewExecutorPool(be, fusion.GeneratePlan(be, fusion.Options{}), nil, bx.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if nx.Threads() != bx.Threads() {
		t.Fatalf("borrowing executor reports %d threads, owner has %d", nx.Threads(), bx.Threads())
	}
	reqs, refs := segFeeds(base, bg, 2, 77)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				s := nx.NewSession()
				for i := 0; i < 20; i++ {
					if _, err := s.RunBatch(ctx, reqs, 2); err != nil {
						t.Errorf("RunBatch: %v", err)
						return
					}
				}
				return
			}
			s := bx.NewSession()
			for i := 0; i < 20; i++ {
				if _, err := s.Run(ctx, refs[w%2]); err != nil {
					t.Errorf("Run: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
