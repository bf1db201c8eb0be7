package ops

import (
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
	blk, ok := AsBlock(src)
	if !ok {
		t.Fatalf("%s: source %T does not implement BlockSource", name, src)
	}
	want := loadAll(src)
	n := len(want)
	check := func(label string, got []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s (%s): element %d = %v, scalar oracle says %v", name, label, i, got[i], want[i])
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

// virtualize composes a source via the operator, failing the test on error.
func virtualize(t *testing.T, op Operator, ins ...Source) Source {
	t.Helper()
	src, err := op.Virtualize(ins, 0)
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

	// Middle-axis broadcast cannot stream flat: must stay scalar.
	mid := virtualize(t, NewAdd(), x, randSource(6, 4, 1, 8))
	if _, ok := AsBlock(mid); ok {
		t.Fatalf("middle-axis broadcast upgraded to BlockSource; its flat orders diverge")
	}
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
	// Transpose is genuinely gather-like: stays scalar.
	if _, ok := AsBlock(virtualize(t, NewTranspose(2, 0, 1), x)); ok {
		t.Fatalf("Transpose upgraded to BlockSource; its access pattern is not flat")
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

	// Staged operand: a fused elementwise producer feeds A, so A has no
	// flat backing and must be staged into per-session scratch.
	aChain := virtualize(t, NewRelu(), virtualize(t, NewAdd(), a, randSource(28, 7, 5)))
	staged := virtualize(t, NewMatMul(), aChain, b)
	if _, ok := staged.(*matmulBlockSource); !ok {
		t.Fatalf("MatMul over fused producer is %T, want staged matmulBlockSource", staged)
	}
	assertBlockParity(t, "MatMul staged A", staged)
	bChain := virtualize(t, NewSigmoid(), b)
	assertBlockParity(t, "MatMul staged B", virtualize(t, NewMatMul(), a, bChain))
	assertBlockParity(t, "MatMul staged batch",
		virtualize(t, NewMatMul(), virtualize(t, NewRelu(), randSource(29, 2, 4, 5)), bChain))
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

	assertBlockParity(t, "MaxPool", virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{3, 3}, Strides: []int{2, 2}, Pads: []int{1, 1}}), x))
	assertBlockParity(t, "AveragePool", virtualize(t, NewAveragePool(PoolAttrs{Kernel: []int{2, 2}, Strides: []int{2, 2}}), x))
	assertBlockParity(t, "GlobalAveragePool", virtualize(t, NewGlobalAveragePool(), x))
	assertBlockParity(t, "MaxPool staged", virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{2, 2}, Strides: []int{1, 1}}), virtualize(t, NewSigmoid(), x)))

	// Odd channels and a 7-wide output row: no chunking in the sweep lands
	// on whole rows, which Conv/Pool never needed.
	odd := randSource(44, 1, 3, 7, 7)
	assertBlockParity(t, "Conv odd rows", virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}}), odd, randSource(45, 5, 3, 3, 3)))
	assertBlockParity(t, "MaxPool odd rows", virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{3, 3}, Strides: []int{1, 1}, Pads: []int{1, 1}}), odd))
}

func TestBlockParitySoftmax(t *testing.T) {
	x := randSource(50, 3, 4, 7)
	assertBlockParity(t, "Softmax innermost", virtualize(t, NewSoftmax(-1), x))
	assertBlockParity(t, "LogSoftmax innermost", virtualize(t, NewLogSoftmax(2), x))
	assertBlockParity(t, "Softmax over fused chain", virtualize(t, NewSoftmax(-1), virtualize(t, NewRelu(), x)))
	// Non-innermost softmax has no flat row order: stays scalar.
	if _, ok := AsBlock(virtualize(t, NewSoftmax(1), x)); ok {
		t.Fatalf("non-innermost Softmax upgraded to BlockSource")
	}
}

// TestMaterializeRangeScalarFallback pins the parallel executor's scalar
// fallback: a gather-like source evaluated by MaterializeRange over
// disjoint ranges must agree with the oracle.
func TestMaterializeRangeScalarFallback(t *testing.T) {
	x := randSource(60, 4, 5, 6)
	tr := virtualize(t, NewTranspose(2, 1, 0), x)
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

// TestBlockParityMatMulRowTile targets the multi-row tile (mulRows4):
// matrices tall enough for several 4-row tiles plus a remainder row, under
// whole-range and misaligned chunked evaluation, across transA, batching,
// and staged operands. Batched serving leans on this being bit-exact — a
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
	assertBlockParity(t, "MatMul tall staged A",
		virtualize(t, NewMatMul(), virtualize(t, NewRelu(), randSource(46, 17, 12)), b))
}
