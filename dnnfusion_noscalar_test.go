package dnnfusion_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/rewrite"
	"dnnfusion/internal/tensor"
)

// encoderBlock is a test-local copy of the repository benchmark's `encoder`
// workload graph (benchmark/workloads.go buildEncoder): one BERT-style
// block — seq 16, hidden 64, 4 heads, FFN 256 — as an exporter leaves it,
// with decomposed LayerNorm ×3, the head-split reshape+transpose ribbon, a
// softmax attention chain and erf-GELU. 67 operators; input "tokens",
// output "pooled". Weights are deterministic functions of their creation
// order.
func encoderBlock() *graph.Graph {
	const seq, hidden, heads, ffn = 16, 64, 4, 256
	const dh = hidden / heads
	g := graph.New("encoder")
	nw := 0
	weight := func(lo, hi float32, dims ...int) *graph.Value {
		nw++
		t := tensor.New(dims...).Rand(uint64(1000 + nw))
		for i, v := range t.Data() {
			// Rand is uniform in [0, 1): place it in [lo, hi).
			t.Data()[i] = lo + (hi-lo)*float32(math.Abs(float64(v))-math.Floor(math.Abs(float64(v))))
		}
		return g.AddWeight(fmt.Sprintf("w%d", nw), t)
	}
	dense := func(fanIn int, dims ...int) *graph.Value {
		a := float32(math.Sqrt(3 / float64(fanIn)))
		return weight(-a, a, dims...)
	}
	linear := func(x *graph.Value, out int) *graph.Value {
		in := x.Shape[x.Shape.Rank()-1]
		v := g.Apply1(ops.NewMatMul(), x, dense(in, in, out))
		return g.Apply1(ops.NewAdd(), v, weight(-0.1, 0.1, out))
	}
	layerNorm := func(x *graph.Value) *graph.Value {
		axis := x.Shape.Rank() - 1
		h := x.Shape[axis]
		mean := g.Apply1(ops.NewReduce(ops.ReduceMean, true, axis), x)
		centered := g.Apply1(ops.NewSub(), x, mean)
		sq := g.Apply1(ops.NewPowConst(2), centered)
		variance := g.Apply1(ops.NewReduce(ops.ReduceMean, true, axis), sq)
		std := g.Apply1(ops.NewSqrt(), g.Apply1(ops.NewAddConst(1e-5), variance))
		norm := g.Apply1(ops.NewDiv(), centered, std)
		scaled := g.Apply1(ops.NewMul(), norm, weight(0.8, 1.2, h))
		return g.Apply1(ops.NewAdd(), scaled, weight(-0.1, 0.1, h))
	}
	geluErf := func(x *graph.Value) *graph.Value {
		v := g.Apply1(ops.NewMulConst(0.7071068), x)
		v = g.Apply1(ops.NewErf(), v)
		v = g.Apply1(ops.NewAddConst(1), v)
		v = g.Apply1(ops.NewMul(), x, v)
		return g.Apply1(ops.NewMulConst(0.5), v)
	}
	split := func(t *graph.Value) *graph.Value {
		t = g.Apply1(ops.NewReshape(seq, heads, dh), t)
		return g.Apply1(ops.NewTranspose(1, 0, 2), t)
	}

	x := layerNorm(g.AddInput("tokens", tensor.Of(seq, hidden)))
	q, k, val := split(linear(x, hidden)), split(linear(x, hidden)), split(linear(x, hidden))
	scores := g.Apply1(ops.NewMatMul(), q, g.Apply1(ops.NewTranspose(0, 2, 1), k))
	scores = g.Apply1(ops.NewMulConst(1/float32(math.Sqrt(dh))), scores)
	scores = g.Apply1(ops.NewAdd(), scores, weight(-0.5, 0, 1, seq, seq))
	ctx := g.Apply1(ops.NewMatMul(), g.Apply1(ops.NewSoftmax(-1), scores), val)
	ctx = g.Apply1(ops.NewTranspose(1, 0, 2), ctx)
	ctx = g.Apply1(ops.NewReshape(seq, hidden), ctx)
	x = layerNorm(g.Apply1(ops.NewAdd(), linear(ctx, hidden), x))

	h := linear(geluErf(linear(x, ffn)), hidden)
	x = layerNorm(g.Apply1(ops.NewAdd(), h, x))

	x = g.Apply1(ops.NewIdentity(), g.Apply1(ops.NewCast(), x))
	x = g.Apply1(ops.NewTranspose(1, 0), g.Apply1(ops.NewTranspose(1, 0), x))

	g.MarkOutputAs("pooled", g.Apply1(ops.NewTanh(), linear(x, hidden)))
	return g
}

// dwSeparableStage is a test-local copy of one stage of the repository
// benchmark's `cnn` workload (benchmark/workloads.go buildCNN) as the
// importer leaves it: depthwise 3×3 stride 2 → BatchNorm (a per-channel Mul
// and Add) → ReLU6 → 1×1 conv → BatchNorm → ReLU6, over a batch of 2. The
// depthwise conv runs its 3×3 stencil over a float64 band per channel; the
// 1×1 reads its input — the fused, staged ReLU6 — in place. Input "x",
// output "y".
func dwSeparableStage() *graph.Graph {
	g := graph.New("dw-separable")
	nw := 0
	weight := func(dims ...int) *graph.Value {
		nw++
		return g.AddWeight(fmt.Sprintf("w%d", nw), tensor.New(dims...).Rand(uint64(2000+nw)))
	}
	bnRelu6 := func(x *graph.Value) *graph.Value {
		c := x.Shape[1]
		v := g.Apply1(ops.NewMul(), x, weight(c, 1, 1))
		v = g.Apply1(ops.NewAdd(), v, weight(c, 1, 1))
		return g.Apply1(ops.NewClip(0, 6), v)
	}
	x := g.AddInput("x", tensor.Of(2, 16, 16, 16))
	v := g.Apply1(ops.NewConv(ops.ConvAttrs{Strides: []int{2}, Pads: []int{1}, Groups: 16}), x, weight(16, 1, 3, 3))
	v = g.Apply1(ops.NewConv(ops.ConvAttrs{}), bnRelu6(v), weight(32, 16, 1, 1))
	g.MarkOutputAs("y", bnRelu6(v))
	return g
}

// lazyAPastCap is a MatMul whose A operand is a fused pointwise producer of
// 8 × 131080 elements — past the 1M-element staging cap, 8.4M MACs: the shape
// of the zoo's GELU → MatMul kernels (BERT-base: 384 × 3072) that ran the
// scalar oracle while a lazy A was staged whole. Input "x", output "y".
func lazyAPastCap() *graph.Graph {
	g := graph.New("lazy-a-past-cap")
	x := g.AddInput("x", tensor.Of(8, 131080))
	v := g.Apply1(ops.NewRelu(), g.Apply1(ops.NewAddConst(-0.25), x))
	w := g.AddWeight("w", tensor.New(131080, 8).Rand(3001))
	g.MarkOutputAs("y", g.Apply1(ops.NewMatMul(), v, w))
	return g
}

// concatPastCap concatenates a fused pointwise producer of 1 × 1025 × 1024
// elements — past the 1M-element staging cap — with an input along axis 1:
// the kernel shape of YOLO-V4's Concat over a lazy producer, which pulled
// its output element by element while Concat staged its operands. Inputs
// "x" and "y", output "z".
func concatPastCap() *graph.Graph {
	g := graph.New("concat-past-cap")
	x := g.AddInput("x", tensor.Of(1, 1025, 1024))
	a := g.Apply1(ops.NewRelu(), g.Apply1(ops.NewAddConst(-0.25), x))
	g.MarkOutputAs("z", g.Apply1(ops.NewConcat(1), a, g.AddInput("y", tensor.Of(1, 3, 1024))))
	return g
}

// TestNoScalarFallback pins the invariant that no compiled kernel runs the
// scalar oracle: for the micro zoo, the encoder block, a depthwise-
// separable conv stage, and a MatMul and a Concat over lazy operands past
// the staging cap,
// under every plan configuration planConfigurations lists, at 1 and 4
// lanes, every bound kernel tree is blocked end to end (ops.ScalarPaths is
// empty), the outputs match the interpreter bit for bit, and a warmed
// Runner.Run on the encoder allocates nothing. At
// the parent commit 8 of the encoder's 14 kernels took the per-element arm
// of ops.MaterializeRange (425 ms an inference against 0.84 ms unfused).
func TestNoScalarFallback(t *testing.T) {
	type namedGraph struct {
		name  string
		build func() *graph.Graph
	}
	if n := len(encoderBlock().Nodes); n != 67 {
		t.Fatalf("encoder block has %d operators, the benchmark's has 67", n)
	}
	graphs := []namedGraph{{"encoder", encoderBlock}, {"dw-separable", dwSeparableStage}, {"lazy-a-past-cap", lazyAPastCap},
		{"concat-past-cap", concatPastCap}}
	for _, m := range models.MicroModels() {
		graphs = append(graphs, namedGraph{m.Name, m.Build})
	}
	for _, ng := range graphs {
		t.Run(ng.name, func(t *testing.T) {
			for _, c := range planConfigurations(t, ng.build) {
				feeds := planFeeds(c.e.G)
				want, err := graph.InterpretOutputs(c.e.G, feeds)
				if err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 4} {
					x, err := engine.NewExecutorThreads(c.e, c.plan, c.kernels, threads)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					sess := x.NewSession()
					got, err := sess.Run(context.Background(), feeds)
					if err != nil {
						t.Fatalf("%s threads %d: %v", c.name, threads, err)
					}
					if paths := sess.ScalarPaths(); len(paths) != 0 {
						t.Errorf("%s threads %d: bound kernels reach the scalar oracle: %v", c.name, threads, paths)
					}
					for _, p := range x.Profile() {
						if p.Scalar {
							t.Errorf("%s threads %d: kernel %s profiles as scalar-fallback", c.name, threads, p.Kernel)
						}
					}
					for oi := range want {
						assertMatchesInterpreter(t, fmt.Sprintf("%s threads %d output %d", c.name, threads, oi),
							got[oi].Data(), want[oi].Data())
					}
					sess.Release()
				}
			}
		})
	}

	for _, threads := range []int{1, 4} {
		model, err := dnnfusion.Compile(encoderBlock(), dnnfusion.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		runner := model.NewRunner()
		inputs := map[string]*dnnfusion.Tensor{"tokens": dnnfusion.Rand(16, 64)}
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
			t.Errorf("warmed encoder Runner.Run at %d threads allocates %.0f times per inference, want 0", threads, allocs)
		}
	}
}

// TestEveryPlanParity holds every plan configuration of the micro zoo to
// the interpreter bit for bit, element by element.
func TestEveryPlanParity(t *testing.T) {
	for _, m := range models.MicroModels() {
		t.Run(m.Name, func(t *testing.T) {
			for _, c := range planConfigurations(t, m.Build) {
				feeds := planFeeds(c.e.G)
				want, err := graph.InterpretOutputs(c.e.G, feeds)
				if err != nil {
					t.Fatal(err)
				}
				x, err := engine.NewExecutorThreads(c.e, c.plan, c.kernels, 1)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				sess := x.NewSession()
				got, err := sess.Run(context.Background(), feeds)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s produced %d outputs, want %d", c.name, len(got), len(want))
				}
				for oi := range want {
					assertMatchesInterpreter(t, fmt.Sprintf("%s output %d", c.name, oi), got[oi].Data(), want[oi].Data())
				}
				sess.Release()
			}
		})
	}
}

// compiledPlan is one fusion plan of a rewritten graph with its scheduled
// kernels, ready for an executor.
type compiledPlan struct {
	name    string
	e       *ecg.ECG
	plan    *fusion.Plan
	kernels []*codegen.Kernel
}

// planConfigurations compiles build's graph under every plan configuration
// the compiler offers — the default, WithoutChainFusion, WithoutFusion,
// and yellow decisions priced for the Snapdragon CPU and GPU — plus a plan
// whose yellow decisions all break, so materialized edges execute too.
func planConfigurations(t *testing.T, build func() *graph.Graph) []compiledPlan {
	t.Helper()
	configs := []struct {
		name string
		opts []dnnfusion.Option
	}{
		{"default", nil},
		{"nochain", []dnnfusion.Option{dnnfusion.WithoutChainFusion()}},
		{"unfused", []dnnfusion.Option{dnnfusion.WithoutFusion()}},
		{"snapdragon-cpu", []dnnfusion.Option{dnnfusion.WithDevice(dnnfusion.SnapdragonCPU())}},
		{"snapdragon-gpu", []dnnfusion.Option{dnnfusion.WithDevice(dnnfusion.SnapdragonGPU())}},
	}
	var cs []compiledPlan
	for _, cfg := range configs {
		// One lane: executors over the plan set their own lane counts.
		m, err := dnnfusion.Compile(build(), append(cfg.opts, dnnfusion.WithThreads(1))...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		cs = append(cs, compiledPlan{cfg.name, m.Compiled.E, m.Compiled.Plan, m.Compiled.Kernels})
	}
	return append(cs, yellowBreakPlan(t, build()))
}

// planFeeds draws deterministic random inputs for g.
func planFeeds(g *graph.Graph) map[*graph.Value]*tensor.Tensor {
	feeds := map[*graph.Value]*tensor.Tensor{}
	for i, in := range g.Inputs {
		feeds[in] = tensor.NewOf(in.Shape).Rand(uint64(77 + i))
	}
	return feeds
}

// yellowBreakPlan compiles g the way Compile does, except that every
// yellow (profitability) decision breaks: under a resolver pricing n
// operators at n², a fused set always prices above its split. Chains are
// still fused.
func yellowBreakPlan(t *testing.T, g *graph.Graph) compiledPlan {
	t.Helper()
	e := ecg.Build(g)
	if _, err := rewrite.NewDefaultEngine().Run(e); err != nil {
		t.Fatal(err)
	}
	broken := fusion.Options{Latency: func(nodes []*graph.Node) float64 { return float64(len(nodes) * len(nodes)) }}
	plan := fusion.GeneratePlan(e, broken)
	fusion.FuseChains(e, plan, broken)
	plan.MarkRemovable(e)
	kernels, err := codegen.CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return compiledPlan{"yellow-break", e, plan, kernels}
}

// assertMatchesInterpreter compares a compiled output with the
// interpreter's bit for bit.
func assertMatchesInterpreter(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %g, interpreter says %g (%d ULP, want bit-exact)", what, i, got[i], want[i], ulpDiff(got[i], want[i]))
		}
	}
}

// BenchmarkEncoderBlock times the encoder block fused, without chain
// fusion and unfused (the repository benchmark's fusion.* ablations), for
// measuring while working on the kernels.
func BenchmarkEncoderBlock(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts []dnnfusion.Option
	}{
		{"fused", nil},
		{"nochain", []dnnfusion.Option{dnnfusion.WithoutChainFusion()}},
		{"unfused", []dnnfusion.Option{dnnfusion.WithoutFusion()}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			m, err := dnnfusion.Compile(encoderBlock(), append(cfg.opts, dnnfusion.WithThreads(1))...)
			if err != nil {
				b.Fatal(err)
			}
			r := m.NewRunner()
			in := map[string]*dnnfusion.Tensor{"tokens": dnnfusion.Rand(16, 64)}
			ctx := context.Background()
			if _, err := r.Run(ctx, in); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
