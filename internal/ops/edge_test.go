package ops

import (
	"math"
	"testing"

	"dnnfusion/internal/tensor"
)

// Edge-case coverage for operator semantics beyond the happy paths.

func TestGatherNegativeIndices(t *testing.T) {
	data := tensor.FromSlice([]float32{10, 20, 30}, 3)
	idx := tensor.FromSlice([]float32{-1, 0}, 2)
	got := mustEval1(t, NewGather(0), data, idx)
	want := tensor.FromSlice([]float32{30, 10}, 2)
	if !tensor.AllClose(got, want, 0) {
		t.Errorf("Gather with negative index = %v, want %v", got.Data(), want.Data())
	}
}

func TestSoftmaxAxisZero(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	sm := mustEval1(t, NewSoftmax(0), x)
	// Columns sum to one.
	for j := 0; j < 2; j++ {
		sum := float64(sm.At(0, j)) + float64(sm.At(1, j))
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("column %d sums to %v", j, sum)
		}
	}
}

func TestReduceMultipleAxesKeepDims(t *testing.T) {
	x := tensor.New(2, 3, 4).Rand(5)
	got := mustEval1(t, NewReduce(ReduceSum, true, 0, 2), x)
	if !got.Shape().Equal(tensor.Of(1, 3, 1)) {
		t.Fatalf("shape = %v, want [1x3x1]", got.Shape())
	}
	var want float64
	for i := 0; i < 2; i++ {
		for k := 0; k < 4; k++ {
			want += float64(x.At(i, 1, k))
		}
	}
	if math.Abs(float64(got.At(0, 1, 0))-want) > 1e-4 {
		t.Errorf("reduced value = %v, want %v", got.At(0, 1, 0), want)
	}
}

func TestCumSum2DAxis0(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	got := mustEval1(t, NewCumSum(0), x)
	want := tensor.FromSlice([]float32{1, 2, 4, 6}, 2, 2)
	if !tensor.AllClose(got, want, 1e-6) {
		t.Errorf("CumSum axis0 = %v, want %v", got.Data(), want.Data())
	}
}

func TestConcatThreeInputs(t *testing.T) {
	a := tensor.FromSlice([]float32{1}, 1, 1)
	b := tensor.FromSlice([]float32{2, 3}, 1, 2)
	c := tensor.FromSlice([]float32{4}, 1, 1)
	got := mustEval1(t, NewConcat(1), a, b, c)
	want := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	if !tensor.AllClose(got, want, 0) {
		t.Errorf("Concat3 = %v, want %v", got.Data(), want.Data())
	}
}

func TestSliceNegativeBounds(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5}, 5)
	got := mustEval1(t, NewSlice([]int{0}, []int{-3}, []int{-1}), x)
	want := tensor.FromSlice([]float32{3, 4}, 2)
	if !tensor.AllClose(got, want, 0) {
		t.Errorf("negative Slice = %v, want %v", got.Data(), want.Data())
	}
}

func TestEinsumErrors(t *testing.T) {
	shapes2 := []tensor.Shape{tensor.Of(2, 3), tensor.Of(3, 4)}
	for _, spec := range []string{"nonsense", "ab,bc", "ab,bc->ax", "abc,bc->ac"} {
		if _, err := NewEinsum(spec).InferShapes(shapes2); err == nil {
			t.Errorf("Einsum(%q) accepted invalid spec/shapes", spec)
		}
	}
	// Outer product (no contraction).
	outer := mustEval1(t, NewEinsum("a,b->ab"),
		tensor.FromSlice([]float32{1, 2}, 2), tensor.FromSlice([]float32{3, 4, 5}, 3))
	if !outer.Shape().Equal(tensor.Of(2, 3)) || outer.At(1, 2) != 10 {
		t.Errorf("einsum outer product wrong: %v %v", outer.Shape(), outer.Data())
	}
}

func TestGemmArityErrors(t *testing.T) {
	g := NewGemm(1, 1, false, false)
	if _, err := g.InferShapes([]tensor.Shape{tensor.Of(2, 3)}); err == nil {
		t.Error("Gemm with one input accepted")
	}
	if _, err := g.InferShapes([]tensor.Shape{tensor.Of(2, 3, 4), tensor.Of(4, 5)}); err == nil {
		t.Error("Gemm with rank-3 A accepted")
	}
	if _, err := g.InferShapes([]tensor.Shape{tensor.Of(2, 3), tensor.Of(4, 5), tensor.Of(9, 9)}); err == nil {
		t.Error("Gemm with non-broadcastable C accepted")
	}
}

func TestDepthToSpaceErrors(t *testing.T) {
	if _, err := NewDepthToSpace(2).InferShapes([]tensor.Shape{tensor.Of(1, 3, 4, 4)}); err == nil {
		t.Error("DepthToSpace with C not divisible by b^2 accepted")
	}
	if _, err := NewSpaceToDepth(2).InferShapes([]tensor.Shape{tensor.Of(1, 3, 5, 4)}); err == nil {
		t.Error("SpaceToDepth with odd H accepted")
	}
	for _, block := range []int{0, -2} {
		for _, op := range []Operator{NewDepthToSpace(block), NewSpaceToDepth(block)} {
			if out, err := op.InferShapes([]tensor.Shape{tensor.Of(1, 8, 4, 4)}); err == nil {
				t.Errorf("%s with block %d accepted: %v", op.Type(), block, out)
			}
		}
	}
}

func TestExpandInvalid(t *testing.T) {
	if _, err := NewExpand(2, 3).InferShapes([]tensor.Shape{tensor.Of(4)}); err == nil {
		t.Error("Expand of incompatible shape accepted")
	}
	// Expand may not shrink.
	if _, err := NewExpand(1, 3).InferShapes([]tensor.Shape{tensor.Of(2, 3)}); err == nil {
		t.Error("Expand that shrinks accepted")
	}
}

func TestPoolTooLargeKernel(t *testing.T) {
	p := NewMaxPool(PoolAttrs{Kernel: []int{5}})
	if _, err := p.InferShapes([]tensor.Shape{tensor.Of(1, 1, 3, 3)}); err == nil {
		t.Error("pool with kernel larger than input accepted")
	}
}

func TestGlobalAveragePool3D(t *testing.T) {
	x := tensor.Full(2, 1, 3, 2, 2, 2)
	got := mustEval1(t, NewGlobalAveragePool(), x)
	if !got.Shape().Equal(tensor.Of(1, 3, 1, 1, 1)) {
		t.Fatalf("GAP 3D shape = %v", got.Shape())
	}
	for _, v := range got.Data() {
		if v != 2 {
			t.Fatalf("GAP of constant tensor = %v, want 2", v)
		}
	}
}

func TestWhereBroadcast(t *testing.T) {
	cond := tensor.FromSlice([]float32{1, 0}, 2, 1)
	a := tensor.FromSlice([]float32{10, 20, 30}, 3)
	b := tensor.FromSlice([]float32{-1, -2, -3}, 3)
	got := mustEval1(t, NewWhere(), cond, a, b)
	if !got.Shape().Equal(tensor.Of(2, 3)) {
		t.Fatalf("Where broadcast shape = %v", got.Shape())
	}
	if got.At(0, 1) != 20 || got.At(1, 1) != -2 {
		t.Errorf("Where broadcast values wrong: %v", got.Data())
	}
}

func TestConvDilation(t *testing.T) {
	// Dilated 2x2 kernel over a 3x3 input samples the corners.
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.Full(1, 1, 1, 2, 2)
	got := mustEval1(t, NewConv(ConvAttrs{Dilations: []int{2}}), x, w)
	if !got.Shape().Equal(tensor.Of(1, 1, 1, 1)) {
		t.Fatalf("dilated conv shape = %v", got.Shape())
	}
	if got.At(0, 0, 0, 0) != 1+3+7+9 {
		t.Errorf("dilated conv = %v, want 20", got.At(0, 0, 0, 0))
	}
}

func TestConvGroupsMismatch(t *testing.T) {
	conv := NewConv(ConvAttrs{Groups: 3})
	in := []tensor.Shape{tensor.Of(1, 4, 8, 8), tensor.Of(6, 2, 3, 3)}
	if _, err := conv.InferShapes(in); err == nil {
		t.Error("Conv with channels not divisible by groups accepted")
	}
}

func TestBitShiftExactness(t *testing.T) {
	// Left shifts on whole numbers must be exact under the float encoding.
	x := tensor.FromSlice([]float32{1, 3, 1000, 123456}, 4)
	got := mustEval1(t, NewBitShift(3), x)
	for i, v := range x.Data() {
		if got.Data()[i] != v*8 {
			t.Errorf("BitShift(3) inexact at %d: %v", i, got.Data()[i])
		}
	}
}

func TestIdentityAndCastZeroFLOPs(t *testing.T) {
	for _, op := range []Operator{NewIdentity(), NewCast()} {
		if f := op.FLOPs([]tensor.Shape{tensor.Of(100)}); f != 0 {
			t.Errorf("%s FLOPs = %d, want 0", op.Type(), f)
		}
	}
}

func TestMovementAttrKeysDistinct(t *testing.T) {
	keys := map[string]bool{}
	for _, op := range []Operator{
		NewSlice([]int{0}, []int{0}, []int{1}),
		NewSlice([]int{0}, []int{1}, []int{2}),
		NewTranspose(0, 1),
		NewTranspose(1, 0),
		NewSplit(0, 1, 2),
		NewSplit(1, 1, 2),
		NewReshape(2, 3),
		NewReshape(3, 2),
	} {
		k := Key(op)
		if keys[k] {
			t.Errorf("duplicate key %q", k)
		}
		keys[k] = true
	}
}

func TestSharedSourceReentrancy(t *testing.T) {
	// A single Source consumed by two parents (shared subtree) must not
	// corrupt its scratch buffers across interleaved Loads.
	x := tensor.New(4, 4).Rand(3)
	sq, err := NewSquare().Virtualize([]Source{AsSource(x)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	add, err := NewAdd().Virtualize([]Source{sq, sq}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := Materialize(add)
	for off, v := range x.Data() {
		want := 2 * v * v
		if math.Abs(float64(out.Data()[off]-want)) > 1e-5 {
			t.Fatalf("shared source corrupted at %d: %v != %v", off, out.Data()[off], want)
		}
	}
}
