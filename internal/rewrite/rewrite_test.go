package rewrite

import (
	"math"
	"testing"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// runAndCompare rewrites g and checks the outputs are numerically unchanged
// for a random positive input (positive to stay inside the fast-math domain
// of Sqrt/Log rules). Returns the stats.
func runAndCompare(t *testing.T, g *graph.Graph) Stats {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid before rewriting: %v", err)
	}
	feeds := map[*graph.Value]*tensor.Tensor{}
	for i, in := range g.Inputs {
		x := tensor.NewOf(in.Shape).Rand(uint64(100 + i))
		for off, v := range x.Data() {
			x.Data()[off] = v*0.45 + 0.55 // (0.1, 1.0)
		}
		feeds[in] = x
	}
	before, err := graph.InterpretOutputs(g, feeds)
	if err != nil {
		t.Fatalf("interpret before: %v", err)
	}
	e := ecg.Build(g)
	st, err := NewDefaultEngine().Run(e)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	after, err := graph.InterpretOutputs(g, feeds)
	if err != nil {
		t.Fatalf("interpret after: %v", err)
	}
	for i := range before {
		if !tensor.AllClose(before[i], after[i], 1e-3) {
			t.Fatalf("output %d changed by rewriting (max diff %g)",
				i, tensor.MaxAbsDiff(before[i], after[i]))
		}
	}
	return st
}

func TestRecipMulRecip(t *testing.T) {
	// Figure 2a: Recip(A) ⊙ Recip(A⊙B) — normalizes to Recip(Square(A)⊙B).
	g := graph.New("recip")
	a := g.AddInput("a", tensor.Of(4, 5))
	b := g.AddInput("b", tensor.Of(4, 5))
	r1 := g.Apply1(ops.NewReciprocal(), a)
	ab := g.Apply1(ops.NewMul(), a, b)
	r2 := g.Apply1(ops.NewReciprocal(), ab)
	out := g.Apply1(ops.NewMul(), r1, r2)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.Applied == 0 {
		t.Error("no rewrites applied to the Figure 2a pattern")
	}
}

func TestSqrtPairElimination(t *testing.T) {
	// Table 4: (A⊙√B)⊙(√B⊙C) → A⊙B⊙C with two distinct Sqrt nodes.
	g := graph.New("sqrtpair")
	a := g.AddInput("a", tensor.Of(3, 4))
	b := g.AddInput("b", tensor.Of(3, 4))
	cc := g.AddInput("c", tensor.Of(3, 4))
	s1 := g.Apply1(ops.NewSqrt(), b)
	s2 := g.Apply1(ops.NewSqrt(), b)
	l := g.Apply1(ops.NewMul(), a, s1)
	r := g.Apply1(ops.NewMul(), s2, cc)
	out := g.Apply1(ops.NewMul(), l, r)
	g.MarkOutput(out)
	flopsBefore := g.FLOPs()
	st := runAndCompare(t, g)
	if st.ByRule["assoc-mul-sqrt-pair"] == 0 {
		t.Errorf("sqrt-pair rule not applied: %v", st.ByRule)
	}
	if g.FLOPs() >= flopsBefore {
		t.Errorf("FLOPs not reduced: %d -> %d", flopsBefore, g.FLOPs())
	}
	// No Sqrt should remain.
	for _, n := range g.Nodes {
		if n.Op.Type() == "Sqrt" {
			t.Error("Sqrt survived the rewrite")
		}
	}
}

func TestAbsMulAbs(t *testing.T) {
	// Table 4: Abs(A)⊙B⊙Abs(C) → Abs(A⊙C)⊙B (4mn → 3mn).
	g := graph.New("absmul")
	a := g.AddInput("a", tensor.Of(4, 4))
	b := g.AddInput("b", tensor.Of(4, 4))
	cc := g.AddInput("c", tensor.Of(4, 4))
	m1 := g.Apply1(ops.NewMul(), g.Apply1(ops.NewAbs(), a), b)
	out := g.Apply1(ops.NewMul(), m1, g.Apply1(ops.NewAbs(), cc))
	g.MarkOutput(out)
	before := g.FLOPs()
	st := runAndCompare(t, g)
	if st.ByRule["assoc-mul-abs-pair"] == 0 {
		t.Errorf("abs-pair rule not applied: %v", st.ByRule)
	}
	if want := before - 16; g.FLOPs() != want {
		t.Errorf("FLOPs = %d, want %d (4mn→3mn)", g.FLOPs(), want)
	}
}

func TestSharedReduceSumSquared(t *testing.T) {
	// Table 4: (A⊙ReduceSum(B))⊙(ReduceSum(B)⊙C) with a shared reduce →
	// the shared factor is squared once at reduced size.
	g := graph.New("redshare")
	a := g.AddInput("a", tensor.Of(6, 8))
	b := g.AddInput("b", tensor.Of(6, 8))
	cc := g.AddInput("c", tensor.Of(6, 8))
	rs := g.Apply1(ops.NewReduce(ops.ReduceSum, true, 1), b) // [6,1]
	l := g.Apply1(ops.NewMul(), a, rs)
	r := g.Apply1(ops.NewMul(), rs, cc)
	out := g.Apply1(ops.NewMul(), l, r)
	g.MarkOutput(out)
	before := g.FLOPs()
	st := runAndCompare(t, g)
	if st.ByRule["assoc-mul-dup-factor"] == 0 {
		t.Errorf("dup-factor rule not applied: %v", st.ByRule)
	}
	if g.FLOPs() >= before {
		t.Errorf("FLOPs not reduced: %d -> %d", before, g.FLOPs())
	}
	// A Square node at the reduced shape must exist.
	foundSquare := false
	for _, n := range g.Nodes {
		if n.Op.Type() == "Square" && n.Outputs[0].Shape.Equal(tensor.Of(6, 1)) {
			foundSquare = true
		}
	}
	if !foundSquare {
		t.Error("expected Square at the reduced shape")
	}
}

func TestDistributiveCommonFactor(t *testing.T) {
	// Figure 2b: A·B⊙C + (A·B)⊙D → A·B⊙(C+D).
	g := graph.New("dist")
	x := g.AddInput("x", tensor.Of(5, 5))
	cw := g.AddWeight("cw", tensor.New(5, 5).Rand(1))
	dw := g.AddWeight("dw", tensor.New(5, 5).Rand(2))
	l := g.Apply1(ops.NewMul(), x, cw)
	r := g.Apply1(ops.NewMul(), x, dw)
	out := g.Apply1(ops.NewAdd(), l, r)
	g.MarkOutput(out)
	before := g.FLOPs()
	st := runAndCompare(t, g)
	if st.ByRule["dist-add-factor-common"] == 0 {
		t.Errorf("distributive rule not applied: %v", st.ByRule)
	}
	// 3mn → 2mn... and then constant folding merges cw+dw into one weight,
	// leaving a single Mul (mn).
	if g.FLOPs() >= before {
		t.Errorf("FLOPs not reduced: %d -> %d", before, g.FLOPs())
	}
}

func TestDistributiveImplicitOne(t *testing.T) {
	// Table 4: A + A⊙B → A⊙(B+1).
	g := graph.New("distone")
	a := g.AddInput("a", tensor.Of(4, 4))
	b := g.AddInput("b", tensor.Of(4, 4))
	out := g.Apply1(ops.NewAdd(), a, g.Apply1(ops.NewMul(), a, b))
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["dist-add-factor-common"] == 0 {
		t.Errorf("implicit-one distributive form not applied: %v", st.ByRule)
	}
	found := false
	for _, n := range g.Nodes {
		if n.Op.Type() == "AddConst" {
			found = true
		}
	}
	if !found {
		t.Error("expected an AddConst(+1) node")
	}
}

func TestMatMulCommonOperand(t *testing.T) {
	// Figure 2b right: GEMM(A,W) + GEMM(B,W) → GEMM(A+B, W).
	g := graph.New("gemmshare")
	a := g.AddInput("a", tensor.Of(4, 6))
	b := g.AddInput("b", tensor.Of(4, 6))
	w := g.AddWeight("w", tensor.New(6, 3).Rand(7))
	l := g.Apply1(ops.NewMatMul(), a, w)
	r := g.Apply1(ops.NewMatMul(), b, w)
	out := g.Apply1(ops.NewAdd(), l, r)
	g.MarkOutput(out)
	before := g.FLOPs()
	st := runAndCompare(t, g)
	if st.ByRule["dist-contraction-common"] == 0 {
		t.Errorf("contraction-common rule not applied: %v", st.ByRule)
	}
	// One MatMul must remain instead of two.
	count := 0
	for _, n := range g.Nodes {
		if n.Op.Type() == "MatMul" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("MatMul count = %d, want 1", count)
	}
	if g.FLOPs() >= before {
		t.Errorf("FLOPs not reduced: %d -> %d", before, g.FLOPs())
	}
}

func TestSquareMinusFactor(t *testing.T) {
	// Table 4: Square(A+B) − (A+B)⊙C → (A+B)⊙(A+B−C).
	g := graph.New("sqminus")
	a := g.AddInput("a", tensor.Of(3, 3))
	b := g.AddInput("b", tensor.Of(3, 3))
	cc := g.AddInput("c", tensor.Of(3, 3))
	s := g.Apply1(ops.NewAdd(), a, b)
	sq := g.Apply1(ops.NewSquare(), s)
	m := g.Apply1(ops.NewMul(), s, cc)
	out := g.Apply1(ops.NewSub(), sq, m)
	g.MarkOutput(out)
	before := g.FLOPs()
	st := runAndCompare(t, g)
	if st.ByRule["dist-square-minus-factor"] == 0 {
		t.Errorf("square-minus rule not applied: %v", st.ByRule)
	}
	if g.FLOPs() >= before {
		t.Errorf("FLOPs not reduced: %d -> %d", before, g.FLOPs())
	}
}

func TestReduceBitShiftCommute(t *testing.T) {
	// Figure 2c: ReduceSum(BitShift(A)) → BitShift(ReduceSum(A)).
	g := graph.New("commute")
	a := g.AddInput("a", tensor.Of(8, 16))
	sh := g.Apply1(ops.NewBitShift(2), a)
	out := g.Apply1(ops.NewReduce(ops.ReduceSum, false, 1), sh)
	g.MarkOutput(out)
	before := g.FLOPs() // 2mn
	st := runAndCompare(t, g)
	if st.ByRule["comm-reduce-homogeneous"] == 0 {
		t.Errorf("commute rule not applied: %v", st.ByRule)
	}
	// mn + m after.
	if want := int64(8*16 + 8); g.FLOPs() != want {
		t.Errorf("FLOPs = %d, want %d (was %d)", g.FLOPs(), want, before)
	}
	// BitShift must now consume the reduced tensor.
	for _, n := range g.Nodes {
		if n.Op.Type() == "BitShift" && !n.Inputs[0].Shape.Equal(tensor.Of(8)) {
			t.Errorf("BitShift input shape = %v, want [8]", n.Inputs[0].Shape)
		}
	}
}

func TestReduceProdExp(t *testing.T) {
	// Table 4: ReduceProd(Exp(A)) → Exp(ReduceSum(A)).
	g := graph.New("prodexp")
	a := g.AddInput("a", tensor.Of(4, 6))
	ex := g.Apply1(ops.NewExp(), a)
	out := g.Apply1(ops.NewReduce(ops.ReduceProd, false, 1), ex)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["comm-reduceprod-exp"] == 0 {
		t.Errorf("reduceprod-exp rule not applied: %v", st.ByRule)
	}
	for _, n := range g.Nodes {
		if n.Op.Type() == "ReduceProd" {
			t.Error("ReduceProd survived")
		}
	}
}

func TestTransposeIntoMatMul(t *testing.T) {
	// The attention pattern: scores = Q · Transpose(K).
	g := graph.New("qkt")
	q := g.AddInput("q", tensor.Of(2, 4, 5))
	k := g.AddInput("k", tensor.Of(2, 4, 5))
	kt := g.Apply1(ops.NewTranspose(0, 2, 1), k)
	scores := g.Apply1(ops.NewMatMul(), q, kt)
	g.MarkOutput(scores)
	st := runAndCompare(t, g)
	if st.ByRule["comm-transpose-into-matmul"] == 0 {
		t.Errorf("transpose-into-matmul not applied: %v", st.ByRule)
	}
	for _, n := range g.Nodes {
		if n.Op.Type() == "Transpose" {
			t.Error("Transpose survived folding into MatMul")
		}
		if n.Op.Type() == "MatMul" {
			if _, tb, _ := ops.MatMulTrans(n.Op); !tb {
				t.Error("MatMul did not absorb transB")
			}
		}
	}
}

func TestMatMulTTransAVariant(t *testing.T) {
	g := graph.New("atb")
	a := g.AddInput("a", tensor.Of(4, 3))
	b := g.AddInput("b", tensor.Of(4, 5))
	at := g.Apply1(ops.NewTranspose(1, 0), a)
	out := g.Apply1(ops.NewMatMul(), at, b)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["comm-transpose-into-matmul"] == 0 {
		t.Errorf("transA folding not applied: %v", st.ByRule)
	}
}

func TestInversePairs(t *testing.T) {
	g := graph.New("inverse")
	a := g.AddInput("a", tensor.Of(10))
	v := g.Apply1(ops.NewLog(), a)
	v = g.Apply1(ops.NewExp(), v) // Exp(Log(a)) == a
	v = g.Apply1(ops.NewNeg(), v)
	v = g.Apply1(ops.NewNeg(), v) // Neg(Neg(x)) == x
	out := g.Apply1(ops.NewRelu(), v)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["simplify-inverse-pair"] < 2 {
		t.Errorf("inverse pairs applied %d times, want 2", st.ByRule["simplify-inverse-pair"])
	}
	if len(g.Nodes) != 1 {
		t.Errorf("nodes after simplification = %d, want 1 (Relu)", len(g.Nodes))
	}
}

func TestTransposeCancellation(t *testing.T) {
	// Transpose -> Relu -> Transpose with inverse perms collapses to Relu.
	g := graph.New("transpose")
	a := g.AddInput("a", tensor.Of(2, 3, 4))
	t1 := g.Apply1(ops.NewTranspose(2, 0, 1), a)
	r := g.Apply1(ops.NewRelu(), t1)
	t2 := g.Apply1(ops.NewTranspose(1, 2, 0), r)
	g.MarkOutput(t2)
	st := runAndCompare(t, g)
	if st.ByRule["comm-transpose-sink"] == 0 {
		t.Errorf("transpose-sink not applied: %v", st.ByRule)
	}
	for _, n := range g.Nodes {
		if n.Op.Type() == "Transpose" {
			t.Error("Transpose survived cancellation")
		}
	}
	if len(g.Nodes) != 1 {
		t.Errorf("nodes = %d, want 1", len(g.Nodes))
	}
}

func TestTransposeComposePair(t *testing.T) {
	g := graph.New("tt")
	a := g.AddInput("a", tensor.Of(2, 3, 4))
	t1 := g.Apply1(ops.NewTranspose(1, 2, 0), a)
	t2 := g.Apply1(ops.NewTranspose(2, 0, 1), t1) // composes to identity
	out := g.Apply1(ops.NewExp(), t2)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["simplify-transpose-compose"] == 0 {
		t.Errorf("transpose-compose not applied: %v", st.ByRule)
	}
}

func TestReorganizeCompose(t *testing.T) {
	g := graph.New("reorg")
	a := g.AddInput("a", tensor.Of(2, 3, 4))
	v := g.Apply1(ops.NewReshape(6, 4), a)
	v = g.Apply1(ops.NewReshape(2, 12), v)
	v = g.Apply1(ops.NewReshape(2, 3, 4), v) // round trip
	out := g.Apply1(ops.NewRelu(), v)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["simplify-reorganize-compose"] == 0 {
		t.Errorf("reorganize-compose not applied: %v", st.ByRule)
	}
	for _, n := range g.Nodes {
		if n.Op.Type() == "Reshape" {
			t.Error("Reshape survived round-trip composition")
		}
	}
}

func TestConstantFolding(t *testing.T) {
	g := graph.New("fold")
	x := g.AddInput("x", tensor.Of(3))
	w1 := g.AddWeight("w1", tensor.FromSlice([]float32{1, 2, 3}, 3))
	w2 := g.AddWeight("w2", tensor.FromSlice([]float32{4, 5, 6}, 3))
	wsum := g.Apply1(ops.NewAdd(), w1, w2) // constant subgraph
	out := g.Apply1(ops.NewMul(), x, wsum)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.ByRule["fold-constants"] == 0 {
		t.Errorf("constant folding not applied: %v", st.ByRule)
	}
	if len(g.Nodes) != 1 {
		t.Errorf("nodes = %d, want 1 (the Mul)", len(g.Nodes))
	}
}

func TestConvBatchNormFold(t *testing.T) {
	g := graph.New("convbn")
	x := g.AddInput("x", tensor.Of(1, 2, 5, 5))
	w := g.AddWeight("w", tensor.New(3, 2, 3, 3).Rand(1))
	conv := g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1}}), x, w)
	scale := g.AddWeight("scale", tensor.FromSlice([]float32{1, 2, 0.5}, 3))
	beta := g.AddWeight("beta", tensor.FromSlice([]float32{0.1, -0.2, 0.3}, 3))
	mean := g.AddWeight("mean", tensor.FromSlice([]float32{0.05, -0.1, 0.2}, 3))
	vr := g.AddWeight("var", tensor.FromSlice([]float32{1, 0.5, 2}, 3))
	bn := g.Apply1(ops.NewBatchNormalization(1e-5), conv, scale, beta, mean, vr)
	g.MarkOutput(bn)
	st := runAndCompare(t, g)
	if st.ByRule["fold-conv-affine"] == 0 {
		t.Errorf("conv-bn folding not applied: %v", st.ByRule)
	}
	for _, n := range g.Nodes {
		if n.Op.Type() == "BatchNormalization" {
			t.Error("BatchNormalization survived folding")
		}
	}
	if len(g.Nodes) != 1 || g.Nodes[0].Op.Type() != "Conv" {
		t.Errorf("expected a single folded Conv, got %d nodes", len(g.Nodes))
	}
	if len(g.Nodes[0].Inputs) != 3 {
		t.Error("folded Conv should carry a bias input")
	}
}

func TestEngineTerminatesOnRandomChains(t *testing.T) {
	// Deep chains of property-carrying ops must reach fixpoint quickly and
	// preserve semantics — a smoke test against oscillating rules.
	g := graph.New("deepchain")
	x := g.AddInput("x", tensor.Of(4, 4))
	v := x
	mk := []func() ops.Operator{
		ops.NewAbs, ops.NewExp, ops.NewLog, ops.NewNeg, ops.NewNeg,
		func() ops.Operator { return ops.NewBitShift(1) },
		ops.NewSqrt, ops.NewSquare, ops.NewReciprocal, ops.NewReciprocal,
	}
	for i := 0; i < 30; i++ {
		v = g.Apply1(mk[i%len(mk)](), v)
	}
	out := g.Apply1(ops.NewReduce(ops.ReduceSum, false, 1), v)
	g.MarkOutput(out)
	st := runAndCompare(t, g)
	if st.NodesAfter >= st.NodesBefore {
		t.Errorf("no simplification on a chain full of inverse pairs: %d -> %d",
			st.NodesBefore, st.NodesAfter)
	}
}

func TestPartitions(t *testing.T) {
	// Relu (no properties) must split partitions.
	g := graph.New("parts")
	x := g.AddInput("x", tensor.Of(4))
	a := g.Apply1(ops.NewAdd(), x, x)
	r := g.Apply1(ops.NewRelu(), a)
	b := g.Apply1(ops.NewMul(), r, r)
	cc := g.Apply1(ops.NewAdd(), b, r)
	g.MarkOutput(cc)
	e := ecg.Build(g)
	parts := Partitions(e)
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2 (split at Relu)", len(parts))
	}
	for _, p := range parts {
		for _, n := range p {
			if n.Op.Properties().None() {
				t.Errorf("partition contains property-free op %v", n)
			}
		}
	}
}

func TestCensus(t *testing.T) {
	rules := DefaultRules()
	census := Census(rules)
	totalMatchers, totalForms := 0, 0
	for _, c := range census {
		totalMatchers += c.Matchers
		totalForms += c.Forms
	}
	if totalMatchers != len(rules) {
		t.Errorf("census matchers = %d, want %d", totalMatchers, len(rules))
	}
	if totalForms < 25 {
		t.Errorf("derived forms = %d, want a substantial catalogue", totalForms)
	}
	// All three paper categories must be populated.
	for _, c := range census {
		if (c.Category == Associative || c.Category == Distributive || c.Category == Commutative) && c.Matchers == 0 {
			t.Errorf("category %v empty", c.Category)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := graph.New("stats")
	a := g.AddInput("a", tensor.Of(8))
	v := g.Apply1(ops.NewNeg(), g.Apply1(ops.NewNeg(), a))
	g.MarkOutput(v)
	e := ecg.Build(g)
	st, err := NewDefaultEngine().Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != st.ByRule["simplify-inverse-pair"] {
		t.Errorf("Applied=%d inconsistent with ByRule=%v", st.Applied, st.ByRule)
	}
	if st.FLOPsAfter >= st.FLOPsBefore {
		t.Errorf("FLOPs accounting wrong: %d -> %d", st.FLOPsBefore, st.FLOPsAfter)
	}
	if math.Abs(float64(st.NodesBefore-st.NodesAfter)) < 1 {
		t.Error("node counts not updated")
	}
}
