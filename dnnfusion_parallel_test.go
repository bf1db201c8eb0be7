// Parallel-execution suite: the blocked + multi-threaded executor must be
// numerically indistinguishable from the reference interpreter at any
// thread count, stay race-free when sessions share the executor's worker
// pool, and keep the warmed zero-allocation guarantee with threads > 1.
package dnnfusion_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// ulpDiff is the distance in float32 representations; 0 means
// bit-identical. Blocked and scalar paths keep identical accumulation
// orders, so every compiled value must be 0 from the interpreter's.
func ulpDiff(a, b float32) uint32 {
	ba, bb := math.Float32bits(a), math.Float32bits(b)
	if ba == bb {
		return 0
	}
	// Map to a monotonic integer line so the distance is meaningful
	// across the sign boundary.
	norm := func(x uint32) int64 {
		if x&0x80000000 != 0 {
			return -int64(x & 0x7fffffff)
		}
		return int64(x)
	}
	d := norm(ba) - norm(bb)
	if d < 0 {
		d = -d
	}
	return uint32(d)
}

// runMicroParity compiles one micro model with opts, executes it through the
// blocked executor at the given thread count and checks every output element
// against the reference interpreter bit for bit.
func runMicroParity(t *testing.T, build func() *dnnfusion.Graph, threads int, opts ...dnnfusion.Option) {
	t.Helper()
	g := build()
	inputs := map[string]*dnnfusion.Tensor{}
	for _, in := range g.Inputs {
		inputs[in.Name] = dnnfusion.Rand(in.Shape...)
	}
	want, err := dnnfusion.InterpretNamed(g, inputs)
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	model, err := dnnfusion.Compile(build(), append(opts, dnnfusion.WithThreads(threads))...)
	if err != nil {
		t.Fatalf("compile (threads=%d): %v", threads, err)
	}
	runner := model.NewRunner()
	defer runner.Release()
	// Run twice so the parity check covers steady state (bound arenas,
	// recycled double buffers), not just the bind path.
	for run := 0; run < 2; run++ {
		got, err := runner.Run(context.Background(), inputs)
		if err != nil {
			t.Fatalf("run (threads=%d): %v", threads, err)
		}
		for name, w := range want {
			gt, ok := got[name]
			if !ok {
				t.Fatalf("threads=%d: output %q missing", threads, name)
			}
			for i, wv := range w.Data() {
				if d := ulpDiff(gt.Data()[i], wv); d != 0 {
					t.Fatalf("threads=%d run=%d: %s[%d] = %v, interpreter says %v (%d ULP, want bit-exact)",
						threads, run, name, i, gt.Data()[i], wv, d)
				}
			}
		}
	}
}

// TestBlockedParallelParity checks every executable micro model through the
// blocked executor against the reference interpreter, single- and
// multi-threaded, bit-for-bit.
func TestBlockedParallelParity(t *testing.T) {
	for _, spec := range models.MicroModels() {
		for _, threads := range []int{1, 8} {
			spec := spec
			threads := threads
			t.Run(spec.Name+threadSuffix(threads), func(t *testing.T) {
				runMicroParity(t, spec.Build, threads)
			})
		}
	}
}

// genericProgram is one pointwise block made of what no other typed stripe
// loop covers and every way a program shares work: the arity-3 Where through
// fn(args), Greater through fn2, Softplus through fn1, the float32
// transcendental loops (Sigmoid, Tanh, Erf), a suffix bias, a scalar operand,
// x read by two operators and the diamond Where(c, t, Neg(t)) over a shared t
// — 64×2048 elements, enough to split across lanes. Input "x", output "y".
func genericProgram() *graph.Graph {
	g := graph.New("generic-program")
	x := g.AddInput("x", tensor.Of(64, 2048))
	bias := g.AddWeight("bias", tensor.New(2048).Rand(4001))
	half := g.AddWeight("half", tensor.Scalar(0.5))
	t := g.Apply1(ops.NewSigmoid(), g.Apply1(ops.NewAdd(), x, bias))
	c := g.Apply1(ops.NewGreater(), t, half)
	v := g.Apply1(ops.NewWhere(), c, t, g.Apply1(ops.NewNeg(), t))
	m := g.Apply1(ops.NewErf(), g.Apply1(ops.NewTanh(), g.Apply1(ops.NewSoftplus(), v)))
	g.MarkOutputAs("y", g.Apply1(ops.NewMul(), m, x))
	return g
}

// geluMatMul is an FFN with an erf-GELU between its two MatMuls: the GELU
// runs as the first contraction's tail or the second one's lazy A, 64 rows
// to split across lanes. Input "x", output "y".
func geluMatMul() *graph.Graph {
	g := graph.New("gelu-matmul")
	x := g.AddInput("x", tensor.Of(64, 32))
	h := g.Apply1(ops.NewAdd(), g.Apply1(ops.NewMatMul(), x, g.AddWeight("w1", tensor.New(32, 128).Rand(4101))),
		g.AddWeight("b1", tensor.New(128).Rand(4102)))
	// GELU(h) = h · (1 + erf(h/√2)) / 2
	e := g.Apply1(ops.NewAddConst(1), g.Apply1(ops.NewErf(), g.Apply1(ops.NewMulConst(1/math.Sqrt2), h)))
	gelu := g.Apply1(ops.NewMulConst(0.5), g.Apply1(ops.NewMul(), h, e))
	g.MarkOutputAs("y", g.Apply1(ops.NewMatMul(), gelu, g.AddWeight("w2", tensor.New(128, 32).Rand(4103))))
	return g
}

// depthwiseGroups is two depthwise convs over nine channels of two images:
// 3×3 at stride 1, then depth multiplier 2 at stride 2, both with a bias.
// Their 18 GEMMs are four whole channel groups (one spanning the two
// images) and two remainder GEMMs, and each output is large enough to split
// across lanes. Input "x", output "y".
func depthwiseGroups() *graph.Graph {
	g := graph.New("depthwise-groups")
	x := g.AddInput("x", tensor.Of(2, 9, 24, 24))
	v := g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1}, Groups: 9}), x,
		g.AddWeight("w1", tensor.New(9, 1, 3, 3).Rand(4201)), g.AddWeight("b1", tensor.New(9).Rand(4202)))
	g.MarkOutputAs("y", g.Apply1(ops.NewConv(ops.ConvAttrs{Strides: []int{2}, Pads: []int{1}, Groups: 9}), v,
		g.AddWeight("w2", tensor.New(18, 1, 3, 3).Rand(4203)), g.AddWeight("b2", tensor.New(18).Rand(4204))))
	return g
}

// TestParallelDepthwiseGroups runs depthwiseGroups over two lanes, bit for
// bit against the interpreter: each lane's chunk starts on a channel group
// (the depthwise TileSpan), so both lanes run whole groups, each with its
// own band.
func TestParallelDepthwiseGroups(t *testing.T) {
	runMicroParity(t, depthwiseGroups, 2)
}

// TestParallelProgramTwoLanes runs the kernels that evaluate a pointwise
// program — the typed chain, the generic one, the Mul, Add, Clip tails of a
// depthwise-separable conv stage delivered a tile span at a time, and a GELU
// between two MatMuls — over two lanes, each with its own operand buffers and
// registers, bit for bit against the interpreter. Under -race it is the gate
// for that scratch being per lane. The conv stage compiles without
// rewriting: fold-conv-affine would fold its Mul and Add into the Convs,
// leaving Clip the only tail.
func TestParallelProgramTwoLanes(t *testing.T) {
	for name, c := range map[string]struct {
		build func() *dnnfusion.Graph
		opts  []dnnfusion.Option
	}{
		"typed chain":     {build: models.MicroElementwise},
		"generic program": {build: genericProgram},
		"conv tails":      {build: dwSeparableStage, opts: []dnnfusion.Option{dnnfusion.WithoutRewrite()}},
		"gelu matmul":     {build: geluMatMul},
	} {
		t.Run(name, func(t *testing.T) { runMicroParity(t, c.build, 2, c.opts...) })
	}
}

func threadSuffix(n int) string {
	if n == 1 {
		return "/threads=1"
	}
	return "/threads=8"
}

// TestParallelRunnersShareOnePool races several runners of one model, each
// on its own goroutine, all competing for the executor's shared worker
// pool — the -race gate for the lane discipline (per-lane Source trees,
// dispatch lock, inline fallback under contention).
func TestParallelRunnersShareOnePool(t *testing.T) {
	g := models.MicroElementwise()
	inputs := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(32, 32, 256)}
	want, err := dnnfusion.InterpretNamed(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dnnfusion.Compile(models.MicroElementwise(), dnnfusion.WithThreads(8))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := model.NewRunner()
			defer runner.Release()
			for j := 0; j < iters; j++ {
				got, err := runner.Run(context.Background(), inputs)
				if err != nil {
					errs <- err
					return
				}
				for i, wv := range want["y"].Data() {
					if ulpDiff(got["y"].Data()[i], wv) != 0 {
						t.Errorf("y[%d] = %v, want %v", i, got["y"].Data()[i], wv)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
