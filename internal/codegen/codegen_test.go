package codegen

import (
	"strings"
	"testing"
	"testing/quick"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// buildFig4 reproduces Figure 4: Out = Recip(IRS2) + Square(IRS2) with
// IRS2 = (A·B) ⊙ C shared between both branches (common subtree), then a
// GEMM feeding it. Slightly simplified to stay single-output.
func buildFig4(t *testing.T) (*graph.Graph, *ecg.ECG, *fusion.Plan) {
	t.Helper()
	g := graph.New("fig4")
	a := g.AddInput("A", tensor.Of(4, 6))
	b := g.AddWeight("B", tensor.New(6, 5).Rand(1))
	cw := g.AddWeight("C", tensor.New(4, 5).Rand(2))
	mm := g.Apply1(ops.NewMatMul(), a, b)  // IRS1 = A·B
	irs2 := g.Apply1(ops.NewMul(), mm, cw) // IRS2 = IRS1 ⊙ C
	rec := g.Apply1(ops.NewReciprocal(), irs2)
	sq := g.Apply1(ops.NewSquare(), irs2) // shares IRS2
	out := g.Apply1(ops.NewAdd(), rec, sq)
	g.MarkOutput(out)
	if err := g.Validate(); err != nil {
		t.Fatalf("fig4 invalid: %v", err)
	}
	e := ecg.Build(g)
	plan := fusion.GeneratePlan(e, fusion.Options{})
	return g, e, plan
}

func feedsFor(g *graph.Graph, seed uint64) map[*graph.Value]*tensor.Tensor {
	feeds := map[*graph.Value]*tensor.Tensor{}
	for i, in := range g.Inputs {
		x := tensor.NewOf(in.Shape).Rand(seed + uint64(i))
		for off, v := range x.Data() {
			x.Data()[off] = v*0.4 + 0.6
		}
		feeds[in] = x
	}
	return feeds
}

// runPlan executes every kernel of the plan in order.
func runPlan(t *testing.T, g *graph.Graph, e *ecg.ECG, plan *fusion.Plan, cache *Cache,
	feeds map[*graph.Value]*tensor.Tensor) map[*graph.Value]*tensor.Tensor {
	t.Helper()
	kernels, err := CompilePlan(e, plan, cache)
	if err != nil {
		t.Fatalf("compile plan: %v", err)
	}
	env := map[*graph.Value]*tensor.Tensor{}
	for v, x := range feeds {
		env[v] = x
	}
	for _, k := range kernels {
		outs, err := k.Execute(env)
		if err != nil {
			t.Fatalf("execute %s: %v", k.Name, err)
		}
		for v, x := range outs {
			env[v] = x
		}
	}
	return env
}

func TestFusedMatchesUnfused(t *testing.T) {
	g, e, plan := buildFig4(t)
	feeds := feedsFor(g, 11)
	want, err := graph.InterpretOutputs(g, feeds)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	env := runPlan(t, g, e, plan, NewCache(), feeds)
	for i, out := range g.Outputs {
		got, ok := env[out]
		if !ok {
			t.Fatalf("output %d not produced by fused execution", i)
		}
		if !tensor.AllClose(got, want[i], 1e-4) {
			t.Errorf("fused output %d differs (max diff %g)", i, tensor.MaxAbsDiff(got, want[i]))
		}
	}
}

// Property: fused execution equals reference interpretation on random
// diamond-shaped graphs (the core legality property of operator fusion).
func TestFusionCorrectnessProperty(t *testing.T) {
	unaries := []func() ops.Operator{
		ops.NewRelu, ops.NewAbs, ops.NewSigmoid, ops.NewTanh,
		func() ops.Operator { return ops.NewLeakyRelu(0.1) }, ops.NewSquare,
	}
	f := func(seed uint64, aIdx, bIdx, cIdx uint8) bool {
		g := graph.New("prop")
		x := g.AddInput("x", tensor.Of(3, 4))
		w := g.AddWeight("w", tensor.New(4, 5).Rand(seed))
		mm := g.Apply1(ops.NewMatMul(), x, w)
		u1 := g.Apply1(unaries[int(aIdx)%len(unaries)](), mm)
		u2 := g.Apply1(unaries[int(bIdx)%len(unaries)](), u1)
		u3 := g.Apply1(unaries[int(cIdx)%len(unaries)](), u1) // diamond
		out := g.Apply1(ops.NewAdd(), u2, u3)
		tr := g.Apply1(ops.NewTranspose(1, 0), out)
		g.MarkOutput(tr)
		e := ecg.Build(g)
		plan := fusion.GeneratePlan(e, fusion.Options{})
		feeds := feedsFor(g, seed)
		want, err := graph.InterpretOutputs(g, feeds)
		if err != nil {
			return false
		}
		kernels, err := CompilePlan(e, plan, nil)
		if err != nil {
			return false
		}
		env := map[*graph.Value]*tensor.Tensor{}
		for v, t := range feeds {
			env[v] = t
		}
		for _, k := range kernels {
			outs, err := k.Execute(env)
			if err != nil {
				return false
			}
			for v, t := range outs {
				env[v] = t
			}
		}
		return tensor.AllClose(env[g.Outputs[0]], want[0], 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDFTSharedSubtreeAndCSE(t *testing.T) {
	_, _, plan := buildFig4(t)
	var fusedBlock *fusion.Block
	for _, b := range plan.Blocks {
		if b.Size() > 1 {
			fusedBlock = b
		}
	}
	if fusedBlock == nil {
		t.Fatal("no fused block in Figure 4 plan")
	}
	dft := BuildDFT(fusedBlock)
	if len(dft.Shared) == 0 {
		t.Error("shared IRS2 subtree not identified")
	}
	if dft.CSESavings() <= 0 {
		t.Errorf("CSE savings = %d, want > 0", dft.CSESavings())
	}
	if dft.FLOPs >= dft.NaiveFLOPs {
		t.Errorf("deduped FLOPs %d !< naive %d", dft.FLOPs, dft.NaiveFLOPs)
	}
}

func TestKernelCacheAcrossModels(t *testing.T) {
	cache := NewCache()
	g1, e1, p1 := buildFig4(t)
	if _, err := CompilePlan(e1, p1, cache); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := cache.Misses
	if cache.Hits != 0 {
		t.Errorf("unexpected hits on first model: %d", cache.Hits)
	}
	// A second, structurally identical "model" must hit the cache.
	g2, e2, p2 := buildFig4(t)
	if _, err := CompilePlan(e2, p2, cache); err != nil {
		t.Fatal(err)
	}
	if cache.Hits != missesAfterFirst {
		t.Errorf("hits = %d, want %d (full reuse across models)", cache.Hits, missesAfterFirst)
	}
	_ = g1
	_ = g2
}

func TestRuleTableHas23Rules(t *testing.T) {
	for _, b := range []Backend{CPU, GPU} {
		rules := RulesFor(b)
		if len(rules) != 23 {
			t.Errorf("%v rule count = %d, want 23 (one per non-red Table 3 cell)", b, len(rules))
		}
		seen := map[string]bool{}
		for _, r := range rules {
			key := r.First.String() + "+" + r.Second.String()
			if seen[key] {
				t.Errorf("%v duplicate rule %s", b, key)
			}
			seen[key] = true
			if r.Strategy == "" {
				t.Errorf("%v rule %s missing strategy", b, key)
			}
		}
	}
	// Spot strategies.
	if r, ok := lookupRule(CPU, ops.ManyToMany, ops.OneToOne); !ok || r.Strategy != Epilogue {
		t.Errorf("Conv+ReLU strategy = %v, want epilogue", r.Strategy)
	}
	if r, ok := lookupRule(CPU, ops.OneToOne, ops.ManyToMany); !ok || r.Strategy != PrologueLoad {
		t.Errorf("Add+GEMM strategy = %v, want prologue-load", r.Strategy)
	}
	if r, ok := lookupRule(CPU, ops.OneToOne, ops.OneToOne); !ok || r.Strategy != ScalarCompose {
		t.Errorf("1-1+1-1 strategy = %v, want scalar-compose", r.Strategy)
	}
	if _, ok := lookupRule(CPU, ops.ManyToMany, ops.ManyToMany); ok {
		t.Error("red pair produced a codegen rule")
	}
}

func TestEmittedSource(t *testing.T) {
	_, e, plan := buildFig4(t)
	kernels, err := CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fused *Kernel
	for _, k := range kernels {
		if k.OpCount > 1 {
			fused = k
		}
	}
	if fused == nil {
		t.Fatal("no fused kernel")
	}
	cpu := fused.Source(CPU)
	for _, want := range []string{"void dnnf_kernel_", "for (int", "restrict", "// codegen rules:"} {
		if !strings.Contains(cpu, want) {
			t.Errorf("CPU source missing %q:\n%s", want, cpu)
		}
	}
	gpu := fused.Source(GPU)
	for _, want := range []string{"__kernel void", "__global", "get_global_id"} {
		if !strings.Contains(gpu, want) {
			t.Errorf("GPU source missing %q:\n%s", want, gpu)
		}
	}
	// Shared subtree must be hoisted as a temporary in the CPU source.
	if !strings.Contains(cpu, "// shared subtree") {
		t.Errorf("CPU source does not hoist the shared subtree:\n%s", cpu)
	}
	// Braces balance in the CPU source.
	if strings.Count(cpu, "{") != strings.Count(cpu, "}") {
		t.Errorf("unbalanced braces:\n%s", cpu)
	}
}

func TestLayoutSelection(t *testing.T) {
	g := graph.New("layout")
	x := g.AddInput("x", tensor.Of(1, 3, 8, 8))
	w := g.AddWeight("w", tensor.New(8, 3, 3, 3).Rand(1))
	c := g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1}}), x, w)
	r := g.Apply1(ops.NewRelu(), c)
	g.MarkOutput(r)
	e := ecg.Build(g)
	plan := fusion.GeneratePlan(e, fusion.Options{})
	kernels, err := CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels {
		if k.OpCount > 1 {
			if k.DominantOp != "Conv" || k.Layout != LayoutNCHW {
				t.Errorf("dominant=%s layout=%s, want Conv/NCHW", k.DominantOp, k.Layout)
			}
		}
	}
}

func TestIndexFoldingStats(t *testing.T) {
	// Transpose interior to a block is folded into index arithmetic.
	g := graph.New("fold")
	x := g.AddInput("x", tensor.Of(4, 6))
	tr := g.Apply1(ops.NewTranspose(1, 0), x)
	r := g.Apply1(ops.NewRelu(), tr)
	g.MarkOutput(r)
	e := ecg.Build(g)
	plan := fusion.GeneratePlan(e, fusion.Options{})
	kernels, err := CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	folded := 0
	for _, k := range kernels {
		folded += len(k.DFT.FoldedMovement)
	}
	if folded != 1 {
		t.Errorf("folded movement ops = %d, want 1 (the Transpose)", folded)
	}
}

func TestKernelCostProfile(t *testing.T) {
	_, e, plan := buildFig4(t)
	kernels, err := CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels {
		if k.ReadBytes <= 0 || k.WriteBytes <= 0 {
			t.Errorf("%s: read/write bytes not computed (%d/%d)", k.Name, k.ReadBytes, k.WriteBytes)
		}
		if k.OpCount > 1 && k.FLOPs <= 0 {
			t.Errorf("%s: FLOPs = %d", k.Name, k.FLOPs)
		}
	}
}

func TestExecuteMissingInputError(t *testing.T) {
	g, e, plan := buildFig4(t)
	kernels, err := CompilePlan(e, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	for _, k := range kernels {
		if _, err := k.Execute(map[*graph.Value]*tensor.Tensor{}); err == nil {
			// Kernels whose inputs are all weights can succeed; others must fail.
			allWeights := true
			for _, in := range k.Inputs {
				if !in.IsConst() {
					allWeights = false
				}
			}
			if !allWeights {
				t.Errorf("%s executed without inputs", k.Name)
			}
		}
	}
}
