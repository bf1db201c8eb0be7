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
// orders, so everything but genuinely reassociated reductions must be 0.
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

// onlineChainMaxULP is the tolerance for models compiled with an online
// (streaming-rescale) softmax chain: the rescale reassociates the exp/sum
// reduction, so outputs match the two-pass oracle within a few ULPs
// rather than bit-for-bit (float64 accumulation keeps the bound tight).
const onlineChainMaxULP = 16

// runMicroParity executes one micro model through the blocked executor at
// the given thread count and checks every output element against the
// reference interpreter within maxULP.
func runMicroParity(t *testing.T, build func() *dnnfusion.Graph, threads int, maxULP uint32) {
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
	model, err := dnnfusion.Compile(build(), dnnfusion.WithThreads(threads))
	if err != nil {
		t.Fatalf("compile (threads=%d): %v", threads, err)
	}
	if model.HasOnlineChain() {
		// The online-softmax chain kernel (flash-attention streaming
		// rescale) is the documented ULP-bounded exception to bit
		// exactness; everything else stays exact.
		if maxULP < onlineChainMaxULP {
			maxULP = onlineChainMaxULP
		}
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
				if d := ulpDiff(gt.Data()[i], wv); d > maxULP {
					t.Fatalf("threads=%d run=%d: %s[%d] = %v, interpreter says %v (%d ULP, max %d)",
						threads, run, name, i, gt.Data()[i], wv, d, maxULP)
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
				runMicroParity(t, spec.Build, threads, 0)
			})
		}
	}
}

// genericProgram is one pointwise block made of what no typed stripe loop
// covers and every way a program shares work: the arity-3 Where through
// fn(args), Greater through fn2, Sigmoid through fn1, a suffix bias, a scalar
// operand, x read by three operators and the diamond Where(c, t, Neg(t)) over
// a shared t — 64×2048 elements, enough to split across lanes. Input "x",
// output "y".
func genericProgram() *graph.Graph {
	g := graph.New("generic-program")
	x := g.AddInput("x", tensor.Of(64, 2048))
	bias := g.AddWeight("bias", tensor.New(2048).Rand(4001))
	half := g.AddWeight("half", tensor.Scalar(0.5))
	t := g.Apply1(ops.NewSigmoid(), g.Apply1(ops.NewAdd(), x, bias))
	c := g.Apply1(ops.NewGreater(), t, half)
	v := g.Apply1(ops.NewWhere(), c, t, g.Apply1(ops.NewNeg(), t))
	g.MarkOutputAs("y", g.Apply1(ops.NewMul(), v, x))
	return g
}

// TestParallelProgramTwoLanes runs the kernels that evaluate a pointwise
// program — the typed chain, the generic one, and the Mul, Add, Clip tails of
// a depthwise-separable conv stage delivered a tile span at a time — over two
// lanes, each with its own operand buffers and registers, bit for bit against
// the interpreter. Under -race it is the gate for that scratch being per lane.
func TestParallelProgramTwoLanes(t *testing.T) {
	for name, build := range map[string]func() *dnnfusion.Graph{
		"typed chain":     models.MicroElementwise,
		"generic program": genericProgram,
		"conv tails":      dwSeparableStage,
	} {
		t.Run(name, func(t *testing.T) { runMicroParity(t, build, 2, 0) })
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
