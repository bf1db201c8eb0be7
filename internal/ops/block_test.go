package ops

import (
	"fmt"
	"math"
	"testing"

	"dnnfusion/internal/tensor"
)

// Block parity suite: every BlockSource must produce bit-identical values
// to the scalar Load tree-walk on the same source, at every offset and
// chunking. The scalar path is the oracle (ops.MaterializeInto keeps using
// it); LoadBlock is only a faster evaluation order.

// loadAll evaluates src one scalar Load per element — the oracle order.
func loadAll(src Source) []float32 {
	shape := src.Shape()
	out := make([]float32, shape.NumElements())
	idx := make([]int, shape.Rank())
	for off := range out {
		shape.Unravel(off, idx)
		out[off] = src.Load(idx)
	}
	return out
}

// assertBlockParity checks LoadBlock against the scalar oracle as one
// whole-range call and as a sweep of misaligned chunkings (the shapes
// parallel grain splitting produces).
func assertBlockParity(t *testing.T, name string, src Source) {
	t.Helper()
	assertBlockParityWant(t, name, src, loadAll(src))
}

// assertBlockParityWant is assertBlockParity against the oracle's output
// want, computed once for several copies of one tree.
func assertBlockParityWant(t *testing.T, name string, src Source, want []float32) {
	t.Helper()
	blk, ok := AsBlock(src)
	if !ok {
		t.Fatalf("%s: source %T does not implement BlockSource", name, src)
	}
	n := len(want)
	check := func(label string, got []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s (%s): element %d = %v (%#08x), scalar oracle says %v (%#08x)", name, label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	whole := make([]float32, n)
	blk.LoadBlock(whole, 0, n)
	check("whole range", whole)
	for _, chunk := range []int{1, 3, 7, n/3 + 1} {
		if chunk <= 0 {
			continue
		}
		got := make([]float32, n)
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			blk.LoadBlock(got[lo:hi], lo, hi-lo)
		}
		check("chunked", got)
	}
}

// scratch reports the Source-owned scratch a tree binds: how many stages
// (whole-operand stages and row windows) holding how many floats, and the
// floats of the contractions' packed B panels.
func scratch(src Source) (stages, stageFloats, panelFloats int) {
	for _, st := range StagedSources(src) {
		stages++
		stageFloats += len(st.buf)
	}
	walk(src, func(n Source) {
		if c, ok := n.(*contraction); ok {
			panelFloats += len(c.panel)
		}
	})
	return stages, stageFloats, panelFloats
}

// virtualize composes a source via the operator, failing the test on error.
func virtualize(t *testing.T, op Operator, ins ...Source) Source {
	t.Helper()
	src, err := op.Virtualize(ins, 0)
	if err != nil {
		t.Fatalf("%s: Virtualize: %v", op.Type(), err)
	}
	return src
}

// virtualizeOut is virtualize for output outNo of a multi-output operator.
func virtualizeOut(t *testing.T, op Operator, outNo int, ins ...Source) Source {
	t.Helper()
	src, err := op.Virtualize(ins, outNo)
	if err != nil {
		t.Fatalf("%s: Virtualize: %v", op.Type(), err)
	}
	return src
}

func randSource(seed uint64, dims ...int) Source {
	return AsSource(tensor.New(dims...).Rand(seed))
}

func TestBlockParityPointwise(t *testing.T) {
	x := randSource(1, 4, 6, 8)
	y := randSource(2, 4, 6, 8)
	bias := randSource(3, 8)   // suffix broadcast
	scalar := randSource(4, 1) // single element
	scalar0 := AsSource(tensor.Scalar(2.5))

	add := virtualize(t, NewAdd(), x, y)
	assertBlockParity(t, "Add same-shape", add)
	assertBlockParity(t, "Add suffix-broadcast bias", virtualize(t, NewAdd(), x, bias))
	assertBlockParity(t, "Mul scalar[1]", virtualize(t, NewMul(), x, scalar))
	assertBlockParity(t, "Mul scalar rank-0", virtualize(t, NewMul(), x, scalar0))
	assertBlockParity(t, "trailing-suffix [6 8]", virtualize(t, NewAdd(), x, randSource(5, 6, 8)))

	// Fused chain: sigmoid(relu(x+bias)*y) streams end to end.
	chain := virtualize(t, NewSigmoid(), virtualize(t, NewMul(), virtualize(t, NewRelu(), virtualize(t, NewAdd(), x, bias)), y))
	assertBlockParity(t, "fused elementwise chain", chain)

	// Non-suffix broadcasts stream through a stride-0 view of the operand.
	assertBlockParity(t, "middle-axis broadcast [4 1 8]", virtualize(t, NewAdd(), x, randSource(6, 4, 1, 8)))
	assertBlockParity(t, "middle-axis broadcast [6 1]", virtualize(t, NewMul(), x, randSource(7, 6, 1)))
	assertBlockParity(t, "leading+trailing broadcast [1 6 1]", virtualize(t, NewSub(), randSource(8, 1, 6, 1), x))
	assertBlockParity(t, "lazy middle-axis operand",
		virtualize(t, NewAdd(), x, virtualize(t, NewSigmoid(), randSource(9, 4, 1, 8))))
	assertBlockParity(t, "both operands broadcast",
		virtualize(t, NewAdd(), randSource(12, 4, 1, 8), randSource(13, 1, 6, 1)))
	// A lazily produced scalar operand (a full reduction) is staged.
	assertBlockParity(t, "x - mean(all)",
		virtualize(t, NewSub(), x, virtualize(t, NewReduce(ReduceMean, true), virtualize(t, NewRelu(), x))))
}

// TestBlockParityRowStatistics covers the decomposed-LayerNorm shapes: a
// keepdims statistic broadcast back against the rows it was reduced from.
func TestBlockParityRowStatistics(t *testing.T) {
	for _, dims := range [][]int{{16, 64}, {5, 48}, {3, 4, 7}} {
		x := randSource(70, dims...)
		last := len(dims) - 1
		mean := func(s Source) Source { return virtualize(t, NewReduce(ReduceMean, true, last), s) }
		c := virtualize(t, NewSub(), x, mean(x))
		assertBlockParity(t, "Sub(x, ReduceMean(x))", c)
		std := virtualize(t, NewSqrt(), virtualize(t, NewAddConst(1e-5), mean(virtualize(t, NewPowConst(2), c))))
		assertBlockParity(t, "Div(c, Sqrt(AddConst(ReduceMean(Pow(c)))))", virtualize(t, NewDiv(), c, std))
	}
	// The statistic of a middle axis broadcasts through stride 0 in the
	// middle: rows repeat, the producer must not be re-pulled per repeat.
	x := randSource(71, 3, 5, 8)
	mid := virtualize(t, NewReduce(ReduceMax, true, 1), virtualize(t, NewRelu(), x))
	assertBlockParity(t, "x - max(axis 1)", virtualize(t, NewSub(), x, mid))
}

func TestBlockParityReduce(t *testing.T) {
	flat := randSource(72, 3, 4, 5)
	fused := virtualize(t, NewMulConst(1.5), virtualize(t, NewAdd(), flat, randSource(73, 5)))
	for kind := ReduceSum; kind <= ReduceMin; kind++ {
		for _, keep := range []bool{true, false} {
			for name, axes := range map[string][]int{
				"trailing": {2}, "trailing pair": {1, 2}, "middle": {1},
				"leading": {0}, "leading pair": {0, 1}, "all": nil, "scattered": {0, 2},
			} {
				op := NewReduce(kind, keep, axes...)
				assertBlockParity(t, kind.String()+" "+name+" flat", virtualize(t, op, flat))
				assertBlockParity(t, kind.String()+" "+name+" fused", virtualize(t, op, fused))
			}
		}
	}
	// Runs longer than the staging buffer fold in stripes; columns wider
	// than the accumulator panel fold in panels.
	long := virtualize(t, NewRelu(), randSource(74, 3, 700))
	assertBlockParity(t, "ReduceSum long rows", virtualize(t, NewReduce(ReduceSum, false, 1), long))
	assertBlockParity(t, "ReduceMean wide columns", virtualize(t, NewReduce(ReduceMean, true, 0), long))
}

func TestBlockParityMovement(t *testing.T) {
	x := randSource(10, 3, 4, 5)
	assertBlockParity(t, "Reshape", virtualize(t, NewReshape(4, 15), x))
	assertBlockParity(t, "Flatten", virtualize(t, NewFlatten(1), x))
	assertBlockParity(t, "Squeeze", virtualize(t, NewSqueeze(0), randSource(11, 1, 4, 5)))
	assertBlockParity(t, "Unsqueeze", virtualize(t, NewUnsqueeze(1), x))
	assertBlockParity(t, "Slice", virtualize(t, NewSlice([]int{1, 2}, []int{1, 1}, []int{3, 4}), x))
	// Reorganize over a fused producer streams through it.
	chain := virtualize(t, NewReshape(60), virtualize(t, NewRelu(), x))
	assertBlockParity(t, "Reshape over fused chain", chain)
	assertBlockParity(t, "Split #1", virtualizeOut(t, NewSplit(1, 1, 3), 1, x))
	assertBlockParity(t, "Expand", virtualize(t, NewExpand(2, 3, 4, 5), randSource(12, 3, 1, 5)))

	// Index-only movement composes into one strided view, over flat memory
	// or a fused producer.
	tr := virtualize(t, NewTranspose(2, 0, 1), x)
	assertBlockParity(t, "Transpose", tr)
	assertBlockParity(t, "Transpose∘Transpose", virtualize(t, NewTranspose(1, 2, 0), tr))
	assertBlockParity(t, "Transpose∘Transpose (cancelling)", virtualize(t, NewTranspose(1, 2, 0), tr))
	assertBlockParity(t, "Slice∘Transpose", virtualize(t, NewSlice([]int{0, 2}, []int{1, 1}, []int{4, 3}), tr))
	assertBlockParity(t, "Reshape over Transpose", virtualize(t, NewReshape(10, 6), tr))
	assertBlockParity(t, "Squeeze∘Unsqueeze∘Transpose",
		virtualize(t, NewSqueeze(1), virtualize(t, NewUnsqueeze(1), tr)))
	lazy := virtualize(t, NewRelu(), virtualize(t, NewAdd(), x, randSource(13, 5)))
	assertBlockParity(t, "Transpose over fused producer", virtualize(t, NewTranspose(2, 0, 1), lazy))
	assertBlockParity(t, "head split over fused producer",
		virtualize(t, NewTranspose(1, 0, 2), virtualize(t, NewReshape(12, 1, 5), lazy)))
	assertBlockParity(t, "Slice over fused producer", virtualize(t, NewSlice([]int{2}, []int{1}, []int{4}), lazy))
	assertBlockParity(t, "Expand over fused producer",
		virtualize(t, NewExpand(3, 4, 5), virtualize(t, NewRelu(), randSource(14, 3, 1, 5))))
	assertBlockParity(t, "Reshape over Transpose over fused producer",
		virtualize(t, NewReshape(5, 12), virtualize(t, NewTranspose(2, 0, 1), lazy)))
	// A view of a tiled contraction reads a staged copy: the contraction
	// runs whole tiles once, never one sliver per view run.
	mm := virtualize(t, NewMatMul(), randSource(15, 3, 8, 6), randSource(16, 6, 4))
	assertBlockParity(t, "head merge over MatMul", virtualize(t, NewReshape(8, 12), virtualize(t, NewTranspose(1, 0, 2), mm)))

	// DepthToSpace, SpaceToDepth, Resize and Upsample are views as well,
	// over flat memory or a fused producer, under a Transpose or a Slice.
	for _, c := range []struct {
		op   Operator
		dims []int
	}{
		{NewDepthToSpace(1), []int{1, 3, 2, 3}},
		{NewDepthToSpace(2), []int{2, 8, 3, 4}},
		{NewDepthToSpace(3), []int{1, 9, 2, 3}},
		{NewSpaceToDepth(1), []int{1, 3, 2, 3}},
		{NewSpaceToDepth(2), []int{2, 3, 6, 4}},
		{NewSpaceToDepth(3), []int{1, 2, 6, 3}},
		{NewUpsample(1), []int{2, 3, 4, 5}},
		{NewUpsample(2), []int{2, 3, 4, 5}},
		{NewUpsample(3), []int{1, 2, 3, 4}},
		{NewResize(2, 1, 3, 2), []int{2, 3, 2, 3}},
	} {
		flat := randSource(17, c.dims...)
		for form, in := range map[string]Source{"flat": flat, "lazy": virtualize(t, NewRelu(), virtualize(t, NewAddConst(-0.25), flat))} {
			name := fmt.Sprintf("%s %s %s %v", c.op.Type(), c.op.AttrKey(), form, c.dims)
			src := virtualize(t, c.op, in)
			if _, ok := src.(*viewBlockSource); !ok {
				t.Errorf("%s virtualizes to %T, want a view", name, src)
			}
			assertMovement(t, name, c.op, src, in)
			assertBlockParity(t, name+" under Transpose", virtualize(t, NewTranspose(0, 3, 1, 2), src))
			assertBlockParity(t, name+" under Slice", virtualize(t, NewSlice([]int{2}, []int{1}, []int{99}), src))
		}
	}
	x4 := randSource(18, 2, 8, 4, 6)
	assertMovement(t, "DepthToSpace over Transpose", NewDepthToSpace(2),
		virtualize(t, NewDepthToSpace(2), virtualize(t, NewTranspose(0, 1, 3, 2), x4)), virtualize(t, NewTranspose(0, 1, 3, 2), x4))
	assertBlockParityWant(t, "SpaceToDepth over DepthToSpace",
		virtualize(t, NewSpaceToDepth(2), virtualize(t, NewDepthToSpace(2), x4)), loadAll(x4))
}

// assertMovement checks src, op virtualized over in, against op's defining
// index arithmetic (movementOracle) through Load and LoadBlock alike.
func assertMovement(t *testing.T, name string, op Operator, src Source, ins ...Source) {
	t.Helper()
	want := movementOracle(t, op, ins...)
	for i, v := range loadAll(src) {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: Load element %d = %v, the index arithmetic says %v", name, i, v, want[i])
		}
	}
	assertBlockParityWant(t, name, src, want)
}

// movementOracle is the index arithmetic DepthToSpace (DCR), SpaceToDepth,
// nearest Resize and Concat are defined by, evaluated one output element at
// a time over the inputs' scalar Load.
func movementOracle(t *testing.T, op Operator, ins ...Source) []float32 {
	t.Helper()
	shapes := make([]tensor.Shape, len(ins))
	for i, in := range ins {
		shapes[i] = in.Shape()
	}
	outs, err := op.InferShapes(shapes)
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	want := make([]float32, out.NumElements())
	o := make([]int, out.Rank())
	for off := range want {
		out.Unravel(off, o)
		sel, in := 0, append([]int(nil), o...)
		switch op.Type() {
		case "DepthToSpace":
			b, _ := BlockSize(op)
			in[1], in[2], in[3] = (o[2]%b*b+o[3]%b)*out[1]+o[1], o[2]/b, o[3]/b
		case "SpaceToDepth":
			b, _ := BlockSize(op)
			c := shapes[0][1]
			blk := o[1] / c
			in[1], in[2], in[3] = o[1]%c, o[2]*b+blk/b, o[3]*b+blk%b
		case "Resize", "Upsample":
			sc, _ := ResizeScales(op)
			for d := range in {
				in[d] /= sc[d]
			}
		case "Concat":
			axis, _ := ConcatAxis(op)
			axis, _ = tensor.NormalizeAxis(axis, out.Rank())
			for ; in[axis] >= shapes[sel][axis]; sel++ {
				in[axis] -= shapes[sel][axis]
			}
		default:
			t.Fatalf("movementOracle: no index arithmetic for %s", op.Type())
		}
		want[off] = ins[sel].Load(in)
	}
	return want
}

// TestBlockParityConcat: Concat streams each operand's runs through the
// operand's own LoadBlock on every axis, stages nothing but a contraction,
// and falls back to pulling only over an operand with no blocked path.
func TestBlockParityConcat(t *testing.T) {
	lazy := func(s Source) Source { return virtualize(t, NewRelu(), virtualize(t, NewAddConst(-0.25), s)) }
	for _, axis := range []int{0, 1, 2, 3, -1, -3} {
		ax, _ := tensor.NormalizeAxis(axis, 4)
		var flat []Source
		for i, n := range []int{2, 1, 3} {
			dims := []int{2, 3, 4, 5}
			dims[ax] = n
			flat = append(flat, randSource(uint64(30+i), dims...))
		}
		for form, ins := range map[string][]Source{
			"flat":  flat,
			"mixed": {lazy(flat[0]), flat[1], lazy(flat[2])},
			"lazy":  {lazy(flat[0]), lazy(flat[1]), lazy(flat[2])},
		} {
			name := fmt.Sprintf("Concat axis %d %s", axis, form)
			src := virtualize(t, NewConcat(axis), ins...)
			if _, ok := src.(*concatSource); !ok {
				t.Errorf("%s virtualizes to %T, want a concatSource", name, src)
			}
			if stages, _, _ := scratch(src); stages != 0 {
				t.Errorf("%s stages %d operands, want none", name, stages)
			}
			assertMovement(t, name, NewConcat(axis), src, ins...)
			assertBlockParity(t, name+" under Transpose", virtualize(t, NewTranspose(3, 1, 0, 2), src))
			assertBlockParity(t, name+" under Slice", virtualize(t, NewSlice([]int{ax}, []int{1}, []int{5}), src))
		}
	}

	// A contraction operand is staged whole, so it runs whole tiles.
	mm := virtualize(t, NewMatMul(), randSource(35, 6, 5), randSource(36, 5, 4))
	other := lazy(randSource(37, 6, 3))
	withMM := virtualize(t, NewConcat(1), other, mm)
	if stages, floats, _ := scratch(withMM); stages != 1 || floats != 6*4 {
		t.Errorf("Concat over a MatMul holds %d stages of %d floats, want the MatMul's 24", stages, floats)
	}
	assertMovement(t, "Concat over MatMul", NewConcat(1), withMM, other, mm)

	// Lazy operands past the staging cap stream: no stage, no scalar path
	// (composed over placeholders, never evaluated).
	big := lazy(Placeholder(tensor.Of(1, 17, 256, 256)))
	if src := virtualize(t, NewConcat(1), big, big); ScalarPaths(src) != nil || len(StagedSources(src)) != 0 {
		t.Errorf("Concat of lazy operands past the cap: scalar paths %v, %d stages; want none",
			ScalarPaths(src), len(StagedSources(src)))
	}
	// An operand with no blocked path (a Transpose of an unstageable
	// producer) leaves Concat pulling element by element.
	scalarOnly := virtualize(t, NewTranspose(0, 1, 3, 2), big)
	src := virtualize(t, NewConcat(1), scalarOnly, big)
	if _, ok := src.(*pullSource); !ok || len(ScalarPaths(src)) == 0 {
		t.Errorf("Concat over an operand with no blocked path is %T with scalar paths %v, want a reported pullSource",
			src, ScalarPaths(src))
	}
}

// TestBlockParityPullModel covers the operators without a strided or row
// form: over a lazy producer they pull from a staged copy of it.
func TestBlockParityPullModel(t *testing.T) {
	x := randSource(80, 2, 4, 6, 6)
	lazy := virtualize(t, NewRelu(), virtualize(t, NewAddConst(-0.25), x))
	idx := AsSource(tensor.FromSlice([]float32{2, 0, -1, 1, 1}, 5))
	assertBlockParity(t, "Gather flat", virtualize(t, NewGather(1), x, idx))
	assertBlockParity(t, "Gather lazy data", virtualize(t, NewGather(1), lazy, idx))
	assertBlockParity(t, "Gather lazy index", virtualize(t, NewGather(2), x, virtualize(t, NewRelu(), idx)))
	assertBlockParity(t, "CumSum lazy", virtualize(t, NewCumSum(2), lazy))
	assertBlockParity(t, "Softmax axis 1 lazy", virtualize(t, NewSoftmax(1), lazy))
	assertBlockParity(t, "InstanceNorm lazy",
		virtualize(t, NewInstanceNormalization(1e-5), lazy, randSource(81, 4), randSource(82, 4)))
	assertBlockParity(t, "BatchNorm lazy", virtualize(t, NewBatchNormalization(1e-5), lazy,
		randSource(83, 4), randSource(84, 4), randSource(85, 4), virtualize(t, NewAbs(), randSource(86, 4))))
	assertBlockParity(t, "Einsum lazy",
		virtualize(t, NewEinsum("bhqd,bhkd->bhqk"), lazy, virtualize(t, NewSigmoid(), x)))
	assertBlockParity(t, "ConvTranspose lazy",
		virtualize(t, NewConvTranspose(ConvAttrs{Strides: []int{2, 2}}), lazy, randSource(87, 4, 3, 2, 2)))
	// Consumers above a pull-model operator stay blocked.
	assertBlockParity(t, "Relu over Gather over lazy",
		virtualize(t, NewRelu(), virtualize(t, NewGather(1), lazy, idx)))
}

// TestStagedInvalidate pins the staging contract: a stage is filled once
// and serves every later LoadBlock until invalidated, after which it
// reflects the inputs' new contents.
func TestStagedInvalidate(t *testing.T) {
	in := tensor.New(3, 4).Rand(90)
	tr := virtualize(t, NewTranspose(1, 0), virtualize(t, NewRelu(), AsSource(in)))
	stages := StagedSources(tr)
	if len(stages) != 1 {
		t.Fatalf("Transpose over a lazy producer has %d stages, want 1", len(stages))
	}
	blk, _ := AsBlock(tr)
	got := make([]float32, 12)
	blk.LoadBlock(got, 0, 12)
	for i := range in.Data() {
		in.Data()[i] = float32(i + 1)
	}
	blk.LoadBlock(got, 0, 12)
	if got[1] == 5 {
		t.Fatalf("stage refilled without Invalidate")
	}
	for _, st := range stages {
		st.Invalidate()
	}
	assertBlockParity(t, "after invalidate", tr)
	blk.LoadBlock(got, 0, 12)
	if got[1] != 5 { // tr[0][1] = in[1][0]
		t.Fatalf("after Invalidate element 1 = %v, want 5", got[1])
	}
}

// TestScalarPaths: the static check is empty for everything Virtualize
// composes over stageable operands and names the operator when an operand
// is past the staging cap.
func TestScalarPaths(t *testing.T) {
	x := randSource(91, 2, 4, 6, 6)
	lazy := virtualize(t, NewRelu(), x)
	idx := AsSource(tensor.FromSlice([]float32{1, 0}, 2))
	for name, src := range map[string]Source{
		"gather over lazy":    virtualize(t, NewGather(1), lazy, idx),
		"transpose over lazy": virtualize(t, NewTranspose(3, 2, 1, 0), lazy),
		"layernorm":           virtualize(t, NewSub(), lazy, virtualize(t, NewReduce(ReduceMean, true, 3), lazy)),
		"cumsum over gather":  virtualize(t, NewCumSum(0), virtualize(t, NewGather(1), lazy, idx)),
		"placeholder leaves":  virtualize(t, NewSoftmax(1), virtualize(t, NewRelu(), Placeholder(tensor.Of(2, 3, 4)))),
	} {
		if paths := ScalarPaths(src); len(paths) != 0 {
			t.Errorf("%s: ScalarPaths = %v, want none", name, paths)
		}
	}
	big := virtualize(t, NewRelu(), Placeholder(tensor.Of(stageElemCap+1, 2)))
	paths := ScalarPaths(virtualize(t, NewRelu(), virtualize(t, NewTranspose(1, 0), big)))
	if len(paths) == 0 {
		t.Fatalf("Transpose over an unstageable lazy operand reported no scalar path")
	}
	t.Log(paths)
	if paths := ScalarPaths(virtualize(t, NewCumSum(0), big)); len(paths) != 1 {
		t.Errorf("CumSum over an unstageable operand: ScalarPaths = %v, want one entry", paths)
	}
}

func TestBlockParityMatMul(t *testing.T) {
	a := randSource(20, 7, 5)
	b := randSource(21, 5, 6)
	assertBlockParity(t, "MatMul 2D", virtualize(t, NewMatMul(), a, b))
	assertBlockParity(t, "MatMul transA", virtualize(t, NewMatMulT(true, false), randSource(22, 5, 7), b))
	assertBlockParity(t, "MatMul transB", virtualize(t, NewMatMulT(false, true), a, randSource(23, 6, 5)))
	assertBlockParity(t, "MatMul transAB", virtualize(t, NewMatMulT(true, true), randSource(24, 5, 7), randSource(25, 6, 5)))

	// Batched with broadcast: a [2,1,4,5] against b [3,5,6] -> [2,3,4,6].
	assertBlockParity(t, "MatMul batch broadcast",
		virtualize(t, NewMatMul(), randSource(26, 2, 1, 4, 5), randSource(27, 3, 5, 6)))

	// Lazy operands: a fused elementwise producer feeds A, so A has no flat
	// backing and arrives in row windows of per-session scratch, one row
	// group (up to 8 rows: all 7 of this 7 × 5 operand) at a time; a lazy B
	// is staged whole.
	aChain := virtualize(t, NewRelu(), virtualize(t, NewAdd(), a, randSource(28, 7, 5)))
	lazyA := virtualize(t, NewMatMul(), aChain, b)
	if stages, floats, _ := scratch(lazyA); stages != 1 || floats != 7*5 {
		t.Errorf("MatMul over a fused producer holds %d stages of %d floats, want one 7-row window of A (35)", stages, floats)
	}
	assertBlockParity(t, "MatMul lazy A", lazyA)
	bChain := virtualize(t, NewSigmoid(), b)
	lazyB := virtualize(t, NewMatMul(), a, bChain)
	if stages, floats, _ := scratch(lazyB); stages != 1 || floats != 5*6 {
		t.Errorf("MatMul over a lazy B holds %d stages of %d floats, want B staged whole (30)", stages, floats)
	}
	assertBlockParity(t, "MatMul staged B", lazyB)
	assertBlockParity(t, "MatMul staged batch",
		virtualize(t, NewMatMul(), virtualize(t, NewRelu(), randSource(29, 2, 4, 5)), bChain))
}

// TestBlockParityMatMulViews: transposed and head-split operands are the
// same tile loops with different strides, over flat memory and over staged
// producers; a chain's producer and B operand take them too.
func TestBlockParityMatMulViews(t *testing.T) {
	q := randSource(110, 16, 4, 8) // [seq, heads, dh]
	k := randSource(111, 16, 4, 8)
	v := randSource(112, 16, 4, 8)
	split := func(s Source) Source { return virtualize(t, NewTranspose(1, 0, 2), s) }
	kT := virtualize(t, NewTranspose(0, 2, 1), split(k))
	scores := virtualize(t, NewMatMul(), split(q), kT)
	if stages, _, _ := scratch(scores); stages != 0 {
		t.Errorf("Q·Kᵀ over views of flat memory stages %d operands, want both read in place", stages)
	}
	assertBlockParity(t, "Q·Kᵀ head-split views", scores)
	assertBlockParity(t, "transB over head-split views", virtualize(t, NewMatMulT(false, true), split(q), split(k)))
	assertBlockParity(t, "transA over transposed view",
		virtualize(t, NewMatMulT(true, false), virtualize(t, NewTranspose(0, 2, 1), split(q)), kT))
	lazyQ := split(virtualize(t, NewRelu(), q))
	assertBlockParity(t, "Q·Kᵀ over staged head-split", virtualize(t, NewMatMul(), lazyQ, kT))
	assertBlockParity(t, "sliced operand", virtualize(t, NewMatMul(),
		virtualize(t, NewSlice([]int{1}, []int{2}, []int{14}), split(q)), kT))
	assertBlockParity(t, "broadcast batch view",
		virtualize(t, NewMatMul(), split(q), virtualize(t, NewTranspose(1, 0), randSource(113, 5, 8))))

	// A chain: the [4, 16, 16] intermediate exists only as an 8-row window
	// (ScheduleFor(16, 8)).
	// The one panel in the tree is Q·Kᵀ's gather of the column-strided Kᵀ.
	_, _, scoresPanel := scratch(scores)
	chain := virtualize(t, NewMatMul(), virtualize(t, NewRelu(), scores), split(v))
	if stages, floats, panel := scratch(chain); stages != 1 || floats != 8*16 || panel != scoresPanel {
		t.Errorf("MatMul over a contraction-rooted A: %d stages of %d floats, %d panel floats; want one 8 × 16 window and B in place", stages, floats, panel-scoresPanel)
	}
	assertBlockParity(t, "chain with view operands", chain)
	vT := virtualize(t, NewTranspose(0, 2, 1), randSource(114, 4, 8, 16)) // [4,16,8] with strided columns
	chainT := virtualize(t, NewMatMul(), virtualize(t, NewRelu(), scores), vT)
	if stages, _, panel := scratch(chainT); stages != 1 || panel != scoresPanel+16*8 {
		t.Errorf("chain over a column-strided B: %d stages, %d panel floats; want the A window alone and B gathered into a 16 × 8 panel", stages, panel-scoresPanel)
	}
	assertBlockParity(t, "chain with transposed-view B", chainT)
}

func TestBlockParityGemm(t *testing.T) {
	a := randSource(30, 6, 4)
	b := randSource(31, 4, 5)
	c := randSource(32, 5) // broadcast addend
	assertBlockParity(t, "Gemm", virtualize(t, NewGemm(1.5, 0.5, false, false), a, b, c))
	assertBlockParity(t, "Gemm transB", virtualize(t, NewGemm(1, 1, false, true), a, randSource(33, 5, 4), c))
	assertBlockParity(t, "Gemm transA", virtualize(t, NewGemm(2, 0, true, false), randSource(34, 4, 6), b))
	assertBlockParity(t, "Gemm staged",
		virtualize(t, NewGemm(1, 1, false, false), virtualize(t, NewRelu(), a), b, c))
}

func TestBlockParityConvPool(t *testing.T) {
	x := randSource(40, 2, 4, 9, 9)
	w := randSource(41, 6, 4, 3, 3)
	bias := randSource(42, 6)
	attrs := ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}, Dilations: []int{1, 1}, Groups: 1}
	assertBlockParity(t, "Conv", virtualize(t, NewConv(attrs), x, w, bias))
	assertBlockParity(t, "Conv dilated", virtualize(t, NewConv(ConvAttrs{Pads: []int{2, 2}, Dilations: []int{2, 2}}), x, w))
	assertBlockParity(t, "Conv grouped",
		virtualize(t, NewConv(ConvAttrs{Groups: 2}), x, randSource(43, 6, 2, 3, 3)))
	// Staged x: a fused producer feeds the convolution.
	assertBlockParity(t, "Conv staged x",
		virtualize(t, NewConv(attrs), virtualize(t, NewRelu(), x), w, bias))
	// Every panel shape of the implicit GEMM. The parity sweep's chunkings
	// start mid-row and cross (image, group) boundaries on all of them
	// (batch 2, and 7 divides no row length here).
	assertBlockParity(t, "Conv depthwise",
		virtualize(t, NewConv(ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}, Groups: 4}), x, randSource(46, 4, 1, 3, 3), randSource(47, 4)))
	inPlace := virtualize(t, NewConv(ConvAttrs{}), x, randSource(48, 6, 4, 1, 1), bias)
	if _, _, panel := scratch(inPlace); panel != 0 {
		t.Errorf("1x1 stride-1 pad-0 conv packs a panel of %d floats, want B read in place", panel)
	}
	assertBlockParity(t, "Conv 1x1 in place", inPlace)
	assertBlockParity(t, "Conv 1x1 in place grouped",
		virtualize(t, NewConv(ConvAttrs{Groups: 2}), x, randSource(49, 6, 2, 1, 1)))
	strided := virtualize(t, NewConv(ConvAttrs{Strides: []int{2, 2}}), x, randSource(50, 6, 4, 1, 1))
	if _, _, panel := scratch(strided); panel == 0 {
		t.Error("1x1 stride-2 conv reads B in place, want a packed (gathered) panel")
	}
	assertBlockParity(t, "Conv 1x1 stride 2", strided)
	assertBlockParity(t, "Conv 1x1 padded", virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}}), x, randSource(51, 6, 4, 1, 1)))
	assertBlockParity(t, "Conv pad >= kernel",
		virtualize(t, NewConv(ConvAttrs{Pads: []int{4, 3}}), x, w, bias))
	assertBlockParity(t, "Conv stride > kernel",
		virtualize(t, NewConv(ConvAttrs{Strides: []int{3, 4}}), x, randSource(52, 6, 4, 2, 2)))
	assertBlockParity(t, "Conv dilated+strided",
		virtualize(t, NewConv(ConvAttrs{Strides: []int{2, 3}, Pads: []int{2, 1}, Dilations: []int{2, 3}}), x, w))
	assertBlockParity(t, "Conv 3-D",
		virtualize(t, NewConv(ConvAttrs{Strides: []int{1, 2, 1}, Pads: []int{1, 0, 1}, Groups: 2}),
			randSource(53, 2, 4, 3, 5, 4), randSource(54, 6, 2, 2, 3, 3), bias))
	assertBlockParity(t, "Conv 1-D", virtualize(t, NewConv(ConvAttrs{Strides: []int{2}, Pads: []int{2}}), randSource(55, 2, 4, 11), randSource(56, 6, 4, 5)))

	assertBlockParity(t, "MaxPool", virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{3, 3}, Strides: []int{2, 2}, Pads: []int{1, 1}}), x))
	assertBlockParity(t, "AveragePool", virtualize(t, NewAveragePool(PoolAttrs{Kernel: []int{2, 2}, Strides: []int{2, 2}}), x))
	assertBlockParity(t, "GlobalAveragePool", virtualize(t, NewGlobalAveragePool(), x))
	assertBlockParity(t, "MaxPool staged", virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{2, 2}, Strides: []int{1, 1}}), virtualize(t, NewSigmoid(), x)))

	// Odd channels and a 7-wide output row: no chunking in the sweep lands
	// on whole rows, so Conv runs single rows and Pool never needed them.
	odd := randSource(44, 1, 3, 7, 7)
	assertBlockParity(t, "Conv odd rows", virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}}), odd, randSource(45, 5, 3, 3, 3)))
	assertBlockParity(t, "MaxPool odd rows", virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{3, 3}, Strides: []int{1, 1}, Pads: []int{1, 1}}), odd))
}

// TestConvPaddingMultipliesByZero pins the one padding rule of every Conv
// path: a tap over the padding contributes 0·w, it is not skipped (ONNX
// pads with zeros), so an Inf weight turns exactly the outputs whose window
// puts it over a border pixel into NaN — in the oracle, the packed panel's
// tiles and its single rows, and the depthwise stencil's stored zeros alike.
func TestConvPaddingMultipliesByZero(t *testing.T) {
	// Channel 2's top-centre tap on input channel 0 is Inf.
	infTap := func(seed uint64, dims ...int) Source {
		w := tensor.New(dims...).Rand(seed)
		w.Set(float32(math.Inf(1)), 2, 0, 0, 1)
		return AsSource(w)
	}
	for _, tc := range []struct {
		name string
		src  Source
		path func(*contraction) bool
	}{
		// C/g = 2: the im2col panel.
		{"Conv", virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}}), randSource(58, 1, 2, 5, 5), infTap(57, 4, 2, 3, 3)),
			func(c *contraction) bool { return c.im2col != nil && c.dw == nil }},
		// Groups = C: channel 2 reads only input channel 2, through the band.
		{"depthwise Conv", virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}, Groups: 4}), randSource(59, 1, 4, 5, 5), infTap(57, 4, 1, 3, 3)),
			func(c *contraction) bool { return c.dw != nil && c.im2col == nil }},
	} {
		found := false
		walk(tc.src, func(n Source) {
			if c, ok := n.(*contraction); ok {
				found = true
				if !tc.path(c) {
					t.Errorf("%s: im2col %v, depthwise %v: not the path this case covers", tc.name, c.im2col != nil, c.dw != nil)
				}
			}
		})
		if !found {
			t.Fatalf("%s: no contraction in the tree", tc.name)
		}
		assertBlockParity(t, tc.name+" Inf weight over padding", tc.src)
		idx := make([]int, 4)
		for off, v := range loadAll(tc.src) {
			tc.src.Shape().Unravel(off, idx)
			if want := idx[1] == 2 && idx[2] == 0; math.IsNaN(float64(v)) != want {
				t.Errorf("%s output %v = %v: NaN exactly on channel 2's top row, where the Inf tap reads padding", tc.name, idx, v)
			}
		}
	}
}

func TestBlockParitySoftmax(t *testing.T) {
	x := randSource(50, 3, 4, 7)
	assertBlockParity(t, "Softmax innermost", virtualize(t, NewSoftmax(-1), x))
	assertBlockParity(t, "LogSoftmax innermost", virtualize(t, NewLogSoftmax(2), x))
	assertBlockParity(t, "Softmax over fused chain", virtualize(t, NewSoftmax(-1), virtualize(t, NewRelu(), x)))
	assertBlockParity(t, "Softmax axis 1", virtualize(t, NewSoftmax(1), x))
	assertBlockParity(t, "LogSoftmax axis 0 over fused chain", virtualize(t, NewLogSoftmax(0), virtualize(t, NewRelu(), x)))
}

// TestMaterializeRangeScalarFallback pins MaterializeRange's per-element
// arm — reached only by a Source with no LoadBlock, which nothing
// Virtualize composes is any more, hence the wrapper that hides it — over
// disjoint ranges against the oracle.
func TestMaterializeRangeScalarFallback(t *testing.T) {
	x := randSource(60, 4, 5, 6)
	tr := Source(struct{ Source }{virtualize(t, NewTranspose(2, 1, 0), x)})
	if _, ok := AsBlock(tr); ok {
		t.Fatal("wrapper did not hide LoadBlock")
	}
	want := loadAll(tr)
	dst := tensor.NewOf(tr.Shape())
	idx := make([]int, tr.Shape().Rank())
	for _, split := range []int{1, 17, 40, len(want)} {
		for i := range dst.Data() {
			dst.Data()[i] = math.Float32frombits(0x7fc00001) // poison NaN
		}
		for lo := 0; lo < len(want); lo += split {
			hi := lo + split
			if hi > len(want) {
				hi = len(want)
			}
			MaterializeRange(tr, dst, idx, lo, hi)
		}
		for i, v := range dst.Data() {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("split %d: element %d = %v, want %v", split, i, v, want[i])
			}
		}
	}
}

// TestBlockParityMatMulRowTile targets the multi-row tiles of mulTileAcc:
// matrices tall enough for several 4-row tiles plus a remainder row, under
// whole-range and misaligned chunked evaluation, across transA, batching,
// and lazy operands. Batched serving leans on this being bit-exact — a
// batch-capacity matmul is just a taller matmul.
func TestBlockParityMatMulRowTile(t *testing.T) {
	b := randSource(41, 12, 9)
	assertBlockParity(t, "MatMul 17x12 (tiles+remainder)",
		virtualize(t, NewMatMul(), randSource(40, 17, 12), b))
	assertBlockParity(t, "MatMul 16x12 (exact tiles)",
		virtualize(t, NewMatMul(), randSource(42, 16, 12), b))
	assertBlockParity(t, "MatMul 3x12 (below tile)",
		virtualize(t, NewMatMul(), randSource(43, 3, 12), b))
	assertBlockParity(t, "MatMul tall transA",
		virtualize(t, NewMatMulT(true, false), randSource(44, 12, 17), b))
	assertBlockParity(t, "MatMul tall batched",
		virtualize(t, NewMatMul(), randSource(45, 3, 10, 12), b))
	assertBlockParity(t, "MatMul tall lazy A",
		virtualize(t, NewMatMul(), virtualize(t, NewRelu(), randSource(46, 17, 12)), b))
}
