// Allocation regression suite for the planned-arena execution path: a
// warmed Runner must serve inference with zero steady-state heap
// allocations, outputs must follow the documented double-buffer ownership
// contract, and Release must drop the arena. BenchmarkRunnerAllocs reports
// allocs/op so the number is visible in every -benchmem run.
package dnnfusion_test

import (
	"context"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/models"
)

// The fused CNN under test is models.MicroCNN, the micro zoo's CNN.
func buildAllocCNN(tb testing.TB) *dnnfusion.Graph {
	tb.Helper()
	return models.MicroCNN()
}

func compileAllocCNN(tb testing.TB) (*dnnfusion.Model, map[string]*dnnfusion.Tensor) {
	tb.Helper()
	g := buildAllocCNN(tb)
	model, err := dnnfusion.Compile(g)
	if err != nil {
		tb.Fatal(err)
	}
	if model.FusedLayerCount() >= len(g.Nodes) {
		tb.Fatalf("alloc CNN did not fuse: %d kernels for %d ops", model.FusedLayerCount(), len(g.Nodes))
	}
	return model, map[string]*dnnfusion.Tensor{"image": dnnfusion.Rand(1, 3, 8, 8)}
}

// TestRunnerZeroAllocSteadyState is the acceptance gate: a warmed
// Runner.Run on a fused CNN performs zero steady-state heap allocations.
func TestRunnerZeroAllocSteadyState(t *testing.T) {
	model, inputs := compileAllocCNN(t)
	runner := model.NewRunner()
	ctx := context.Background()
	if _, err := runner.Run(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := runner.Run(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Runner.Run allocates %.0f times per inference, want 0", allocs)
	}
	if model.PlannedPeakBytes() <= 0 {
		t.Errorf("PlannedPeakBytes = %d, want > 0", model.PlannedPeakBytes())
	}
}

// TestRunnerZeroAllocSteadyStateThreaded extends the gate to the parallel
// executor: with WithThreads(8) on an output large enough to dispatch
// (micro-elementwise: 262144 elements splits across lanes), the worker
// pool's wake/claim/done cycle and the per-lane Source trees must add
// zero steady-state allocations.
func TestRunnerZeroAllocSteadyStateThreaded(t *testing.T) {
	model, err := dnnfusion.Compile(models.MicroElementwise(), dnnfusion.WithThreads(8))
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(32, 32, 256)}
	runner := model.NewRunner()
	ctx := context.Background()
	// Two warmup runs: the first binds arena + per-lane trees, and the
	// first parallel dispatch lazily starts the pool's workers.
	for i := 0; i < 2; i++ {
		if _, err := runner.Run(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := runner.Run(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed threaded Runner.Run allocates %.0f times per inference, want 0", allocs)
	}
}

// TestRunnerZeroAllocSteadyStateConv extends the gate to Conv on the
// contraction micro-kernel: the im2col panel and the tile accumulators are
// sized at bind time, per lane, so a warmed depthwise-separable stage (a
// packed K = 9 panel, a 1×1 reading its staged input in place, BN + ReLU6
// tails staging whole row tiles) allocates nothing at 1 and 4 lanes.
func TestRunnerZeroAllocSteadyStateConv(t *testing.T) {
	for _, threads := range []int{1, 4} {
		model, err := dnnfusion.Compile(dwSeparableStage(), dnnfusion.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range model.Profile() {
			if p.Schedule == "default" {
				t.Errorf("conv kernel %s reports the default schedule, want its selected rtN/cpM", p.Kernel)
			}
		}
		runner := model.NewRunner()
		inputs := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(2, 16, 16, 16)}
		ctx := context.Background()
		for i := 0; i < 2; i++ { // bind, then the pool's lazy worker start
			if _, err := runner.Run(ctx, inputs); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := runner.Run(ctx, inputs); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warmed conv Runner.Run at %d threads allocates %.0f times per inference, want 0", threads, allocs)
		}
	}
}

// TestRunnerZeroAllocSteadyStateProgram extends the gate to the loops of a
// pointwise program that go through a func value — fn1, fn2 and the arity-3
// Where's fn(args), whose argument scratch is sized with the registers at
// bind time — at 1 and 2 lanes.
func TestRunnerZeroAllocSteadyStateProgram(t *testing.T) {
	for _, threads := range []int{1, 2} {
		model, err := dnnfusion.Compile(genericProgram(), dnnfusion.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if model.FusedLayerCount() != 1 {
			t.Fatalf("generic program compiled to %d kernels, want one fused program", model.FusedLayerCount())
		}
		runner := model.NewRunner()
		inputs := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(64, 2048)}
		ctx := context.Background()
		for i := 0; i < 2; i++ { // bind, then the pool's lazy worker start
			if _, err := runner.Run(ctx, inputs); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := runner.Run(ctx, inputs); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warmed generic-program Runner.Run at %d threads allocates %.0f times per inference, want 0", threads, allocs)
		}
	}
}

// TestSessionRunZeroAllocSteadyState proves the same property one layer
// down, through the Compiled session API the Runner wraps.
func TestSessionRunZeroAllocSteadyState(t *testing.T) {
	model, inputs := compileAllocCNN(t)
	sess := model.NewSession()
	feeds := map[*dnnfusion.Value]*dnnfusion.Tensor{model.G.Inputs[0]: inputs["image"]}
	ctx := context.Background()
	if _, err := sess.Run(ctx, feeds); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sess.Run(ctx, feeds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Session.Run allocates %.0f times per inference, want 0", allocs)
	}
}

// TestRunnerZeroAllocSteadyStateProfiled extends the gate to the armed
// telemetry path: with per-kernel profiling enabled (as every serving
// process runs), a warmed Runner.Run must still perform zero steady-state
// heap allocations — the hooks pay clock reads and atomic updates only.
func TestRunnerZeroAllocSteadyStateProfiled(t *testing.T) {
	model, inputs := compileAllocCNN(t)
	runner := model.NewRunner()
	ctx := context.Background()
	if _, err := runner.Run(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	dnnfusion.EnableProfiling()
	defer dnnfusion.DisableProfiling()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := runner.Run(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Runner.Run with profiling armed allocates %.0f times per inference, want 0", allocs)
	}
	var runs uint64
	for _, p := range model.Profile() {
		runs += p.Runs
	}
	if runs == 0 {
		t.Error("profiling armed but no kernel runs recorded")
	}
}

// TestRunnerOutputsSurviveNextRun pins the public ownership contract:
// copy-out means the outputs of one Run remain valid and unchanged after
// the next Run on the same runner, even though no allocation happened.
func TestRunnerOutputsSurviveNextRun(t *testing.T) {
	model, inputs := compileAllocCNN(t)
	runner := model.NewRunner()
	ctx := context.Background()

	first, err := runner.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), first["probs"].Data()...)

	alt := dnnfusion.NewTensor(1, 3, 8, 8)
	alt.Fill(0.25)
	second, err := runner.Run(ctx, map[string]*dnnfusion.Tensor{"image": alt})
	if err != nil {
		t.Fatal(err)
	}
	if first["probs"] == second["probs"] {
		t.Fatal("consecutive Runs returned the same output tensor")
	}
	for i, v := range first["probs"].Data() {
		if v != want[i] {
			t.Fatalf("output changed after the next Run at %d: %g != %g", i, v, want[i])
		}
	}
	// Interpreter agreement: the zero-alloc path must stay numerically
	// identical to the reference semantics.
	ref, err := dnnfusion.InterpretNamed(buildAllocCNN(t), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ref["probs"].Data() {
		if d := float64(v - want[i]); d > 1e-4 || d < -1e-4 {
			t.Fatalf("arena output diverges from interpreter at %d", i)
		}
	}
}

// TestRunnerRelease pins the idle-memory contract at the public layer.
func TestRunnerRelease(t *testing.T) {
	model, inputs := compileAllocCNN(t)
	runner := model.NewRunner()
	ctx := context.Background()
	first, err := runner.Run(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]float32(nil), first["probs"].Data()...)
	runner.Release()
	again, err := runner.Run(ctx, inputs) // rebinds transparently
	if err != nil {
		t.Fatalf("run after Release: %v", err)
	}
	for i, v := range again["probs"].Data() {
		if v != keep[i] {
			t.Fatalf("post-Release run diverges at %d", i)
		}
	}
}

// BenchmarkRunnerAllocs is the perf-trajectory benchmark for the serving
// hot path: run with -benchmem (ReportAllocs makes it unconditional) to see
// ns/op, B/op, and allocs/op for a warmed Runner on the fused CNN.
func BenchmarkRunnerAllocs(b *testing.B) {
	model, inputs := compileAllocCNN(b)
	runner := model.NewRunner()
	ctx := context.Background()
	if _, err := runner.Run(ctx, inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(ctx, inputs); err != nil {
			b.Fatal(err)
		}
	}
}
