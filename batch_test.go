// Batching parity suite: a coalesced batch must be semantically invisible.
// For every batchable micro model, the outputs of one BatchRunner.RunBatch
// over N requests are pinned bit-identical to N independent Runner.Run
// calls on the base model — at one worker lane and at eight — for full and
// partial batches. The suite also pins the zero-allocation contract of the
// batched hot path and the ErrNotBatchable taxonomy.
package dnnfusion_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/models"
)

// batchableMicros lists the micro models that admit a leading batch axis.
// micro-attention is deliberately absent: its rank-2 self-attention mixes
// rows, and CompileBatch must reject it (TestCompileBatchRejectsAttention).
var batchableMicros = []struct {
	Name  string
	Build func() *dnnfusion.Graph
}{
	{"micro-cnn", models.MicroCNN},
	{"micro-mlp", models.MicroMLP},
	{"micro-elementwise", models.MicroElementwise},
	{"micro-head", models.MicroHead},
}

// microInputs builds one request's named random feeds for a model,
// deterministically varied by seed so every request in a batch differs.
func microInputs(tb testing.TB, m *dnnfusion.Model, seed uint64) map[string]*dnnfusion.Tensor {
	tb.Helper()
	in := map[string]*dnnfusion.Tensor{}
	for i, name := range m.InputNames() {
		shape, err := m.InputShape(name)
		if err != nil {
			tb.Fatal(err)
		}
		in[name] = dnnfusion.NewTensor(shape...).Rand(seed*97 + uint64(i))
	}
	return in
}

func TestBatchingParityBitExact(t *testing.T) {
	const capacity = 8
	for _, spec := range batchableMicros {
		for _, threads := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/threads=%d", spec.Name, threads), func(t *testing.T) {
				model, err := dnnfusion.Compile(spec.Build(), dnnfusion.WithThreads(threads))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				bm, err := model.CompileBatch(capacity)
				if err != nil {
					t.Fatalf("CompileBatch: %v", err)
				}
				ctx := context.Background()
				runner := model.NewRunner()
				br := bm.NewRunner()
				for _, n := range []int{capacity, 3, 1} {
					reqs := make([]map[string]*dnnfusion.Tensor, n)
					for i := range reqs {
						reqs[i] = microInputs(t, model, uint64(n*100+i))
					}
					got, err := br.RunBatch(ctx, reqs)
					if err != nil {
						t.Fatalf("RunBatch(%d): %v", n, err)
					}
					if len(got) != n {
						t.Fatalf("RunBatch(%d) returned %d results", n, len(got))
					}
					for i, req := range reqs {
						want, err := runner.Run(ctx, req)
						if err != nil {
							t.Fatalf("sequential run %d: %v", i, err)
						}
						for name, w := range want {
							g, ok := got[i][name]
							if !ok {
								t.Fatalf("request %d missing output %q", i, name)
							}
							if !g.Shape().Equal(w.Shape()) {
								t.Fatalf("request %d output %q shape %v, want %v", i, name, g.Shape(), w.Shape())
							}
							gd, wd := g.Data(), w.Data()
							for k := range wd {
								if gd[k] != wd[k] {
									t.Fatalf("batch of %d, request %d, output %q element %d: batched %v != sequential %v (must be bit-identical)",
										n, i, name, k, gd[k], wd[k])
								}
							}
						}
						// The comparison above consumed `want` before the next
						// sequential Run recycles the runner's double buffer.
					}
				}
			})
		}
	}
}

func TestCompileBatchRejectsAttention(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroAttention())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = model.CompileBatch(8)
	if err == nil {
		t.Fatal("micro-attention must not be batchable (its transpose moves the leading axis)")
	}
	if !errors.Is(err, dnnfusion.ErrNotBatchable) {
		t.Fatalf("error %v does not wrap ErrNotBatchable", err)
	}
}

func TestCompileBatchMetadata(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroMLP())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Batch() != 4 || bm.Base() != model {
		t.Fatalf("Batch()=%d Base()==model=%v", bm.Batch(), bm.Base() == model)
	}
	shape, err := bm.Model().InputShape("x")
	if err != nil {
		t.Fatal(err)
	}
	baseShape, _ := model.InputShape("x")
	if shape[0] != 4*baseShape[0] {
		t.Fatalf("batch input leading dim %d, want %d", shape[0], 4*baseShape[0])
	}
	if got, want := bm.Model().OutputNames(), model.OutputNames(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("batch output names %v, want %v", got, want)
	}
	if bm.PlannedPeakBytes() <= model.PlannedPeakBytes() {
		t.Fatalf("batch arena %d bytes not larger than base %d", bm.PlannedPeakBytes(), model.PlannedPeakBytes())
	}
	if _, err := model.CompileBatch(0); !errors.Is(err, dnnfusion.ErrNotBatchable) {
		t.Fatalf("CompileBatch(0) = %v, want ErrNotBatchable", err)
	}
}

func TestBatchRunnerErrorTaxonomy(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroMLP())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	br := bm.NewRunner()
	ctx := context.Background()
	ok := microInputs(t, model, 1)

	if _, err := br.RunBatch(ctx, nil); !errors.Is(err, dnnfusion.ErrMissingInput) {
		t.Errorf("empty batch: %v, want ErrMissingInput", err)
	}
	over := []map[string]*dnnfusion.Tensor{ok, ok, ok}
	if _, err := br.RunBatch(ctx, over); err == nil {
		t.Error("over-capacity batch accepted")
	}
	if _, err := br.RunBatch(ctx, []map[string]*dnnfusion.Tensor{{"nope": dnnfusion.Rand(1)}}); !errors.Is(err, dnnfusion.ErrUnknownInput) {
		t.Errorf("unknown input: %v, want ErrUnknownInput", err)
	}
	if _, err := br.RunBatch(ctx, []map[string]*dnnfusion.Tensor{{}}); !errors.Is(err, dnnfusion.ErrMissingInput) {
		t.Errorf("missing input: %v, want ErrMissingInput", err)
	}
	var se *dnnfusion.ShapeError
	_, err = br.RunBatch(ctx, []map[string]*dnnfusion.Tensor{{"x": dnnfusion.Rand(2, 2)}})
	if !errors.As(err, &se) {
		t.Errorf("bad shape: %v, want *ShapeError", err)
	} else if se.Input != "x" {
		t.Errorf("ShapeError names input %q, want x", se.Input)
	}
}

// TestBatchRunnerErrorsMatchRunner feeds each bad request alone to
// Runner.Run and as request 1 of a RunBatch: both must return the same
// sentinel, the batch error must name request 1, and a shape error must
// still be a *ShapeError under the wrapping. Both runners keep working.
func TestBatchRunnerErrorsMatchRunner(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroMLP())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	runner, br := model.NewRunner(), bm.NewRunner()
	ctx := context.Background()
	ok := microInputs(t, model, 1)
	for _, c := range []struct {
		name string
		req  map[string]*dnnfusion.Tensor
		want error
	}{
		{"unknown input", map[string]*dnnfusion.Tensor{"x": ok["x"], "nope": dnnfusion.Rand(1)}, dnnfusion.ErrUnknownInput},
		{"missing input", map[string]*dnnfusion.Tensor{}, dnnfusion.ErrMissingInput},
		{"nil tensor", map[string]*dnnfusion.Tensor{"x": nil}, dnnfusion.ErrMissingInput},
		{"wrong shape", map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(2, 2)}, dnnfusion.ErrShapeMismatch},
	} {
		_, runErr := runner.Run(ctx, c.req)
		_, batchErr := br.RunBatch(ctx, []map[string]*dnnfusion.Tensor{ok, c.req})
		if !errors.Is(runErr, c.want) || !errors.Is(batchErr, c.want) {
			t.Errorf("%s: Run %v, RunBatch %v, want both %v", c.name, runErr, batchErr, c.want)
			continue
		}
		if !strings.Contains(batchErr.Error(), "request 1") {
			t.Errorf("%s: RunBatch error %q does not name request 1", c.name, batchErr)
		}
		var runSE, batchSE *dnnfusion.ShapeError
		if errors.As(runErr, &runSE) != errors.As(batchErr, &batchSE) {
			t.Errorf("%s: Run %v and RunBatch %v disagree on *ShapeError", c.name, runErr, batchErr)
		} else if batchSE != nil && (batchSE.Input != "x" || batchSE.Error() != runSE.Error()) {
			t.Errorf("%s: RunBatch's ShapeError %v, Run's %v", c.name, batchSE, runSE)
		}
	}
	if _, err := runner.Run(ctx, ok); err != nil {
		t.Fatalf("runner poisoned by earlier errors: %v", err)
	}
	if _, err := br.RunBatch(ctx, []map[string]*dnnfusion.Tensor{ok, ok}); err != nil {
		t.Fatalf("batch runner poisoned by earlier errors: %v", err)
	}
}

// TestBatchRunnerZeroAllocSteadyState pins the acceptance claim: warmed
// batched serving adds zero allocations per batch in the execution hot
// path, for full and partial batches.
func TestBatchRunnerZeroAllocSteadyState(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroMLP())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	br := bm.NewRunner()
	ctx := context.Background()
	reqs := make([]map[string]*dnnfusion.Tensor, 4)
	for i := range reqs {
		reqs[i] = microInputs(t, model, uint64(40+i))
	}
	// Two warmup rounds materialize both output ring view sets.
	for i := 0; i < 2; i++ {
		if _, err := br.RunBatch(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := br.RunBatch(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed RunBatch allocates %.2f times per batch, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := br.RunBatch(ctx, reqs[:2]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed partial RunBatch allocates %.2f times per batch, want 0", allocs)
	}
}

// TestBatchRunnerOutputDoubleBuffer pins the documented ownership
// contract: one RunBatch's outputs survive the next RunBatch unchanged and
// are recycled by the one after.
func TestBatchRunnerOutputDoubleBuffer(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroMLP())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	br := bm.NewRunner()
	ctx := context.Background()
	reqA := []map[string]*dnnfusion.Tensor{microInputs(t, model, 1), microInputs(t, model, 2)}
	reqB := []map[string]*dnnfusion.Tensor{microInputs(t, model, 3), microInputs(t, model, 4)}

	first, err := br.RunBatch(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first[0]["y"].Clone()
	if _, err := br.RunBatch(ctx, reqB); err != nil {
		t.Fatal(err)
	}
	for k, w := range snapshot.Data() {
		if first[0]["y"].Data()[k] != w {
			t.Fatalf("output changed under the caller after one subsequent RunBatch (element %d)", k)
		}
	}
	// After Release the runner rebinds and stays correct.
	br.Release()
	again, err := br.RunBatch(ctx, reqA)
	if err != nil {
		t.Fatalf("RunBatch after Release: %v", err)
	}
	for k, w := range snapshot.Data() {
		if again[0]["y"].Data()[k] != w {
			t.Fatalf("post-Release output differs at element %d", k)
		}
	}
}

// TestCompileBatchThreadOverride pins the WithThreads contract: by default
// the variant borrows the base pool; an explicit WithThreads gives it its
// own lane count instead.
func TestCompileBatchThreadOverride(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroMLP(), dnnfusion.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := bm.Model().Compiled.SharedPool(); got != model.Compiled.SharedPool() {
		t.Fatal("default CompileBatch does not borrow the base pool")
	}
	single, err := model.CompileBatch(2, dnnfusion.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Model().Compiled.SharedPool(); got == model.Compiled.SharedPool() {
		t.Fatal("WithThreads(1) override still borrows the base pool")
	}
	if n := single.Model().Compiled.SharedPool().Lanes(); n != 1 {
		t.Fatalf("WithThreads(1) variant has %d lanes, want 1", n)
	}
}
