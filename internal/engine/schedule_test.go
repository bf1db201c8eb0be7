package engine

import (
	"context"
	"math"
	"testing"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// Schedule execution suite: every tile schedule a kernel can run must
// leave execution bit-exact with the scalar reference interpreter — across
// worker-lane counts (the schedule also drives the pool's grain alignment)
// and across batch capacities (batched compiles derive taller schedules
// from the taller shapes) — and must not cost the warmed hot path its
// zero-allocation contract.

// engineScheduleGrid spans the heights and panels the blocked kernels
// implement, plus values that normalize (height 3, panel wider than N).
var engineScheduleGrid = []ops.Schedule{
	{RowTile: 1, ColPanel: 8},
	{RowTile: 2, ColPanel: 16},
	{RowTile: 3, ColPanel: 33},
	{RowTile: 4, ColPanel: 64},
	{RowTile: 8, ColPanel: 512},
}

// compileWithSchedule compiles g's plan and forces sched onto every
// schedulable kernel, replacing the one it recorded: the grid must hold for
// any schedule, not only the ones ops.ScheduleFor picks.
func compileWithSchedule(t *testing.T, g *graph.Graph, sched ops.Schedule, threads int) *Executor {
	t.Helper()
	e := ecg.Build(g)
	plan := fusion.GeneratePlan(e, fusion.Options{})
	kernels, err := codegen.CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatalf("compile plan: %v", err)
	}
	for _, k := range kernels {
		if _, _, _, ok := k.ScheduleTask(); ok {
			k.Schedule = sched
		}
	}
	x, err := NewExecutorThreads(e, plan, kernels, threads)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	return x
}

func assertBitEqual(t *testing.T, label string, got, want []*tensor.Tensor) {
	t.Helper()
	for o := range want {
		gd, wd := got[o].Data(), want[o].Data()
		for i := range wd {
			if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
				t.Fatalf("%s: output %d element %d = %v, interpreter says %v", label, o, i, gd[i], wd[i])
			}
		}
	}
}

// buildGemmMLP is buildMLP with both layers as Gemm operators carrying
// their full epilogue: alpha ≠ 1, beta ∉ {0, 1}, an [N] and an [M,1]
// addend, and a transposed B on the second layer.
func buildGemmMLP(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("gemm-mlp")
	x := g.AddInput("x", tensor.Of(16, 64))
	w1 := g.AddWeight("w1", tensor.New(64, 96).Rand(1))
	c1 := g.AddWeight("c1", tensor.New(96).Rand(2))
	h := g.Apply1(ops.NewGemm(0.75, -1.25, false, false), x, w1, c1)
	h = g.Apply1(ops.NewRelu(), h)
	w2 := g.AddWeight("w2", tensor.New(32, 96).Rand(3))
	c2 := g.AddWeight("c2", tensor.New(16, 1).Rand(4))
	g.MarkOutput(g.Apply1(ops.NewGemm(1.5, 0.5, false, true), h, w2, c2))
	if err := g.Validate(); err != nil {
		t.Fatalf("gemm mlp invalid: %v", err)
	}
	return g
}

// buildConvPool is a Conv and a MaxPool with odd channel counts and
// 37-wide output rows, both graph outputs: large enough that 8 lanes split
// each output into several chunks. The Conv kernel takes the forced
// schedule (its chunks align to row tiles of 37·37 positions); Pool carries
// none, so its chunks sit on the plain grain and no boundary falls on a
// whole row.
func buildConvPool(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("conv-pool")
	x := g.AddInput("x", tensor.Of(1, 3, 37, 37))
	w := g.AddWeight("w", tensor.New(5, 3, 3, 3).Rand(1))
	c := g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1, 1}}), x, w)
	g.MarkOutput(c)
	g.MarkOutput(g.Apply1(ops.NewMaxPool(ops.PoolAttrs{Kernel: []int{3, 3}, Strides: []int{1, 1}, Pads: []int{1, 1}}), c))
	if err := g.Validate(); err != nil {
		t.Fatalf("conv-pool invalid: %v", err)
	}
	return g
}

// TestScheduleGridInterpreterParity runs the fused MLP — as MatMul+Add and
// as Gemm layers — and a Conv/MaxPool pair (the pool unscheduled) under
// every grid schedule at 1 and 8 worker lanes, against the scalar interpreter,
// bit-for-bit.
func TestScheduleGridInterpreterParity(t *testing.T) {
	for _, sched := range engineScheduleGrid {
		for _, threads := range []int{1, 8} {
			mlp, _ := buildMLP(t)
			for _, g := range []*graph.Graph{mlp, buildGemmMLP(t), buildConvPool(t)} {
				in := tensor.NewOf(g.Inputs[0].Shape).Rand(uint64(41 + sched.RowTile))
				feeds := map[*graph.Value]*tensor.Tensor{g.Inputs[0]: in}
				want, err := graph.InterpretOutputs(g, feeds)
				if err != nil {
					t.Fatal(err)
				}
				ex := compileWithSchedule(t, g, sched, threads)
				got, err := ex.NewSession().Run(context.Background(), feeds)
				if err != nil {
					t.Fatalf("%s rt=%d threads=%d: %v", g.Name, sched.RowTile, threads, err)
				}
				assertBitEqual(t, g.Name+" schedule grid", got, want)
			}
		}
	}
}

// TestScheduleGridBatchParity runs the batch-8 capacity variant under
// every grid schedule at 1 and 8 lanes: each request's segment of the
// batched output must equal its own single-request interpreter run,
// bit-for-bit (partial batches included via the 3-request case).
func TestScheduleGridBatchParity(t *testing.T) {
	const batch = 8
	for _, sched := range engineScheduleGrid {
		for _, threads := range []int{1, 8} {
			for _, nreq := range []int{batch, 3} {
				baseG, _ := buildMLP(t)
				batchG, err := graph.WithLeadingBatch(baseG, batch)
				if err != nil {
					t.Fatal(err)
				}
				ex := compileWithSchedule(t, batchG, sched, threads)
				reqs, refs := segFeeds(baseG, batchG, nreq, uint64(7+sched.RowTile))
				outs, err := ex.NewSession().RunBatch(context.Background(), reqs, batch)
				if err != nil {
					t.Fatalf("rt=%d threads=%d nreq=%d: %v", sched.RowTile, threads, nreq, err)
				}
				for i := 0; i < nreq; i++ {
					want, err := graph.InterpretOutputs(baseG, refs[i])
					if err != nil {
						t.Fatal(err)
					}
					for o := range want {
						seg := want[o].NumElements()
						got := outs[o].Data()[i*seg : (i+1)*seg]
						for j := range want[o].Data() {
							if math.Float32bits(got[j]) != math.Float32bits(want[o].Data()[j]) {
								t.Fatalf("rt=%d threads=%d req %d output %d element %d diverges",
									sched.RowTile, threads, i, o, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestScheduleZeroAllocSteadyState pins that schedule application stays a
// bind-time affair: a warmed session under the tallest grid schedule (the
// one that grows accumulator and stripe scratch the most) still runs at
// zero allocations per op, at 1 and 8 lanes.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	for _, threads := range []int{1, 8} {
		g, _ := buildMLP(t)
		ex := compileWithSchedule(t, g, ops.Schedule{RowTile: 8, ColPanel: 512}, threads)
		in := tensor.NewOf(tensor.Of(16, 64)).Rand(5)
		feeds := map[*graph.Value]*tensor.Tensor{g.Inputs[0]: in}
		s := ex.NewSession()
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if _, err := s.Run(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Run(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("threads=%d: %v allocs/op under forced schedule, want 0", threads, allocs)
		}
	}
}
