// Differential fuzzing of the full compiler: random small graphs — biased
// toward the contraction chains the block-level chain fuser targets — are
// compiled across {chain fusion on/off} × {threads 1,8} × {batch 1,3} and
// checked two ways. Against the reference interpreter every configuration
// must agree semantically (the fast-math rewriter may legitimately
// reassociate by a few ULPs, e.g. x·m + x → x·(m+1)). Between
// configurations the comparison is bit-level: chain fusion, thread count,
// and schedule choice must not change a single bit. The seed corpus runs
// deterministically under plain `go test`; `go test
// -fuzz=FuzzDifferential` explores beyond it.
package integration_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dnnfusion/internal/core"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// fuzzULP is the float32 representation distance (0 = bit-identical),
// monotonic across the sign boundary.
func fuzzULP(a, b float32) uint32 {
	ba, bb := math.Float32bits(a), math.Float32bits(b)
	if ba == bb {
		return 0
	}
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

// chainGraph builds a random DAG over [4x6] tensors like randomGraph, but
// biased toward the contraction-chain shapes the chain fuser targets
// (MatMul→Softmax→MatMul, MatMul→pointwise→MatMul) and restricted to
// operators that admit a leading batch axis, so every generated graph also
// exercises the batch-3 configuration. Chain intermediates deliberately
// stay out of the value pool: a second consumer would (correctly) block
// fusion, and fan-out coverage already comes from pick() reuse elsewhere.
func chainGraph(seed uint64, size int) *graph.Graph {
	r := &rng{s: seed*2654435761 + 1}
	g := graph.New(fmt.Sprintf("fuzz-%d", seed))
	pool := []*graph.Value{g.AddInput("x", tensor.Of(rows, cols))}
	pick := func() *graph.Value { return pool[r.intn(len(pool))] }

	weightID := 0
	weight := func(dims ...int) *graph.Value {
		weightID++
		w := tensor.NewOf(tensor.Of(dims...)).Rand(seed + uint64(weightID))
		for i, v := range w.Data() {
			w.Data()[i] = v*0.4 + 0.6
		}
		return g.AddWeight(fmt.Sprintf("w%d", weightID), w)
	}

	for i := 0; i < size; i++ {
		var v *graph.Value
		switch r.intn(10) {
		case 0, 1: // MatMul → Softmax → MatMul: the attention-chain shape
			s := g.Apply1(ops.NewMatMul(), pick(), weight(cols, cols))
			p := g.Apply1(ops.NewSoftmax(-1), s)
			v = g.Apply1(ops.NewMatMul(), p, weight(cols, cols))
		case 2, 3: // MatMul → activation → MatMul: the MLP-chain shape
			acts := []func() ops.Operator{
				ops.NewRelu, ops.NewSigmoid, ops.NewTanh,
				func() ops.Operator { return ops.NewLeakyRelu(0.1) },
			}
			h := g.Apply1(ops.NewMatMul(), pick(), weight(cols, cols))
			a := g.Apply1(acts[r.intn(len(acts))](), h)
			v = g.Apply1(ops.NewMatMul(), a, weight(cols, cols))
		case 4: // bare MatMul (chain producer candidate with fan-out)
			v = g.Apply1(ops.NewMatMul(), pick(), weight(cols, cols))
		case 5: // Softmax row-wise outside a chain
			v = g.Apply1(ops.NewSoftmax(-1), pick())
		case 6, 7: // binary over two pool values (may alias)
			binaries := []func() ops.Operator{ops.NewAdd, ops.NewMul, ops.NewMin, ops.NewMax}
			v = g.Apply1(binaries[r.intn(len(binaries))](), pick(), pick())
		case 8: // safe unary
			unaries := []func() ops.Operator{
				ops.NewRelu, ops.NewAbs, ops.NewSqrt, ops.NewSquare,
				func() ops.Operator { return ops.NewClip(0, 2) },
				func() ops.Operator { return ops.NewMulConst(0.5) },
			}
			v = g.Apply1(unaries[r.intn(len(unaries))](), pick())
		default: // broadcast add with a [cols] weight (One-to-Many)
			v = g.Apply1(ops.NewAdd(), pick(), weight(cols))
		}
		pool = append(pool, v)
	}
	g.MarkOutput(pool[len(pool)-1])
	if extra := pick(); extra != pool[len(pool)-1] && extra.Kind == graph.Intermediate {
		g.MarkOutput(extra)
	}
	return g
}

// describeGraph renders a repro-friendly node listing for failure dumps.
func describeGraph(g *graph.Graph) string {
	var b strings.Builder
	for _, n := range g.TopoSort() {
		fmt.Fprintf(&b, "  %v\n", n)
	}
	return b.String()
}

// cfgRun is one compiled configuration's result: its outputs and how many
// chains it fused.
type cfgRun struct {
	outs   []*tensor.Tensor
	chainN int
}

// runCfg compiles and runs one configuration of g; on failure the second
// return describes it.
func runCfg(g *graph.Graph, feeds map[*graph.Value]*tensor.Tensor, chainOn bool, threads int) (cfgRun, string) {
	opts := core.Options{GraphRewrite: true, Fusion: true, OtherOpt: true, ChainFusion: chainOn, Threads: threads}
	c, err := core.Compile(g, opts)
	if err != nil {
		return cfgRun{}, fmt.Sprintf("compile: %v", err)
	}
	sessFeeds := make(map[*graph.Value]*tensor.Tensor, len(g.Inputs))
	for i, in := range c.G.Inputs {
		sessFeeds[in] = feeds[g.Inputs[i]]
	}
	got, err := c.NewSession().Run(context.Background(), sessFeeds)
	if err != nil {
		return cfgRun{}, fmt.Sprintf("run: %v", err)
	}
	return cfgRun{outs: got, chainN: c.Stats.ChainFusions}, ""
}

// diffBits compares two output sets element-wise and reports the first pair
// that differs in any bit ("" = bit-identical).
func diffBits(got, base []*tensor.Tensor) string {
	if len(got) != len(base) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(base))
	}
	for i := range base {
		for k, bv := range base[i].Data() {
			if gv := got[i].Data()[k]; math.Float32bits(gv) != math.Float32bits(bv) {
				return fmt.Sprintf("output %d element %d: %v vs baseline %v (%d ULP, want bit-exact)",
					i, k, gv, bv, fuzzULP(gv, bv))
			}
		}
	}
	return ""
}

// differential checks one (seed, size) input across the full configuration
// grid and returns a description of the first failure ("" = all agree).
// The baseline configuration is chain-off single-threaded; every other
// configuration must match it bit-for-bit.
func differential(seed uint64, size int) string {
	base := chainGraph(seed, size)
	if err := base.Validate(); err != nil {
		return fmt.Sprintf("invalid graph: %v", err)
	}
	for _, batch := range []int{1, 3} {
		g := base
		if batch > 1 {
			bg, err := graph.WithLeadingBatch(base, batch)
			if err != nil {
				// Generator ops all admit a leading batch axis; a rejection
				// here is itself a bug worth surfacing.
				return fmt.Sprintf("batch %d: %v", batch, err)
			}
			g = bg
		}
		feeds := feedsFor(g, seed)
		want, err := graph.InterpretOutputs(g, feeds)
		if err != nil {
			return fmt.Sprintf("batch %d: interpret: %v", batch, err)
		}
		ref, msg := runCfg(g, feeds, false, 1)
		if msg != "" {
			return fmt.Sprintf("batch=%d chain=false threads=1: %s", batch, msg)
		}
		for _, chainOn := range []bool{false, true} {
			for _, threads := range []int{1, 8} {
				if !chainOn && threads == 1 {
					continue // the baseline itself
				}
				r, msg := runCfg(g, feeds, chainOn, threads)
				if msg != "" {
					return fmt.Sprintf("batch=%d chain=%v threads=%d: %s", batch, chainOn, threads, msg)
				}
				if msg := diffBits(r.outs, ref.outs); msg != "" {
					return fmt.Sprintf("batch=%d chain=%v threads=%d: %s", batch, chainOn, threads, msg)
				}
			}
		}
		// Semantic preservation vs the interpreter: the rewriter may
		// reassociate (e.g. distributive factoring), so this leg is a
		// tolerance check, not bit-level.
		for i := range want {
			if !tensor.AllClose(ref.outs[i], want[i], 1e-3) {
				return fmt.Sprintf("batch=%d: output %d diverged from interpreter (max diff %g)",
					batch, i, tensor.MaxAbsDiff(ref.outs[i], want[i]))
			}
		}
	}
	return ""
}

// FuzzDifferential is the fuzz entry point. The seed corpus is biased
// toward contraction chains (both softmax and activation middles) and
// runs deterministically in CI under plain `go test`; under
// -fuzz the engine mutates (seed, size) freely. On failure the input is
// shrunk to the smallest failing graph size before reporting, and the
// minimal graph is dumped for offline repro.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed, 10)
	}
	// Larger graphs: more fan-out, more chains per graph.
	f.Add(uint64(101), 20)
	f.Add(uint64(202), 24)
	f.Fuzz(func(t *testing.T, seed uint64, size int) {
		if size < 1 {
			size = 1
		}
		if size > 24 { // bound compile cost per input
			size = size%24 + 1
		}
		msg := differential(seed, size)
		if msg == "" {
			return
		}
		// Shrink: the generator is prefix-stable in size (the first k steps
		// of (seed, n) equal (seed, k)), so the smallest failing size is the
		// minimal repro for this seed.
		minSize, minMsg := size, msg
		for s := 1; s < size; s++ {
			if m := differential(seed, s); m != "" {
				minSize, minMsg = s, m
				break
			}
		}
		t.Fatalf("differential mismatch: seed=%d size=%d (minimal repro)\n%s\ngraph:\n%s",
			seed, minSize, minMsg, describeGraph(chainGraph(seed, minSize)))
	})
}

// gemmChainGraph is the Gemm counterpart of chainGraph's two chain shapes:
// output 0 is Gemm → Relu → Gemm (the MLP chain), output 1 is Gemm →
// Softmax → Gemm (the attention chain). Every Gemm carries an epilogue —
// alpha ≠ 1, beta ∉ {0, 1} and a C of each broadcast form ([N], [M,1],
// single element) or alpha alone — and a transposed producer operand, so
// the chain kernel and its streamed producer both finish their
// accumulators through the epilogue.
func gemmChainGraph() *graph.Graph {
	g := graph.New("gemm-chains")
	x := g.AddInput("x", tensor.Of(rows, cols))
	weightID := 0
	weight := func(dims ...int) *graph.Value {
		weightID++
		return g.AddWeight(fmt.Sprintf("w%d", weightID), tensor.NewOf(tensor.Of(dims...)).Rand(uint64(900+weightID)))
	}
	h := g.Apply1(ops.NewGemm(0.75, -1.25, false, true), x, weight(cols, cols), weight(cols))
	h = g.Apply1(ops.NewRelu(), h)
	g.MarkOutput(g.Apply1(ops.NewGemm(1.5, 0.5, false, false), h, weight(cols, cols), weight(rows, 1)))
	s := g.Apply1(ops.NewGemm(0.5, 0, false, false), x, weight(cols, cols))
	s = g.Apply1(ops.NewSoftmax(-1), s)
	g.MarkOutput(g.Apply1(ops.NewGemm(-2, 3, false, false), s, weight(cols, cols), weight(1)))
	return g
}

// TestForcedScheduleGridParity sweeps kernel schedules across a grid —
// including deliberately mismatched producer/consumer chain schedules —
// and requires every point to match the compilation's own schedules
// bit-for-bit: the whole-row-group discipline makes kernel bits
// independent of tile choice. The Gemm chain graph rides the same grid and
// is additionally held to the scalar interpreter: the rewriter has nothing
// to reassociate in it, so both its chains must match it bit-for-bit.
func TestForcedScheduleGridParity(t *testing.T) {
	grid := []ops.Schedule{
		{RowTile: 1, ColPanel: 8},
		{RowTile: 2, ColPanel: 16},
		{RowTile: 4, ColPanel: 32},
		{RowTile: 8, ColPanel: 4096},
	}
	for seed := uint64(0); seed <= 6; seed++ {
		g := gemmChainGraph() // seed 0
		if seed > 0 {
			g = chainGraph(seed, 12)
		}
		feeds := feedsFor(g, seed)
		ref, msg := runCfg(g, feeds, true, 1)
		if msg != "" {
			t.Fatalf("seed %d baseline: %s", seed, msg)
		}
		if seed == 0 {
			if ref.chainN != 2 {
				t.Fatalf("Gemm chain graph fused %d chains, want 2", ref.chainN)
			}
			want, err := graph.InterpretOutputs(g, feeds)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffBits(ref.outs, want); msg != "" {
				t.Fatalf("Gemm chains vs interpreter: %s", msg)
			}
		}
		for _, cons := range grid {
			for _, prod := range grid {
				c, err := core.Compile(g, core.Defaults())
				if err != nil {
					t.Fatalf("seed %d: compile: %v", seed, err)
				}
				// Force the schedules before the first session binds: the
				// bind path applies whatever the kernel carries.
				for _, k := range c.Kernels {
					if k.Schedule.Zero() {
						continue // non-schedulable kernel
					}
					k.Schedule = cons
					if k.Block.Chain != nil {
						k.ProducerSchedule = prod
					}
				}
				sessFeeds := make(map[*graph.Value]*tensor.Tensor, len(g.Inputs))
				for i, in := range c.G.Inputs {
					sessFeeds[in] = feeds[g.Inputs[i]]
				}
				got, err := c.NewSession().Run(context.Background(), sessFeeds)
				if err != nil {
					t.Fatalf("seed %d cons=%v prod=%v: run: %v", seed, cons, prod, err)
				}
				if msg := diffBits(got, ref.outs); msg != "" {
					t.Fatalf("seed %d cons=%v prod=%v: %s", seed, cons, prod, msg)
				}
			}
		}
	}
}
