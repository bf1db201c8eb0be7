package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnfusion/internal/tensor"
)

func TestMatMul2D(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := mustEval1(t, NewMatMul(), a, b)
	want := tensor.FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Errorf("MatMul = %v, want %v", got.Data(), want.Data())
	}
	if f := NewMatMul().FLOPs([]tensor.Shape{a.Shape(), b.Shape()}); f != 2*2*3*2 {
		t.Errorf("MatMul FLOPs = %d, want 24", f)
	}
}

func TestMatMulBatchBroadcast(t *testing.T) {
	a := tensor.New(3, 2, 4).Rand(1)
	b := tensor.New(1, 4, 5).Rand(2)
	got := mustEval1(t, NewMatMul(), a, b)
	if !got.Shape().Equal(tensor.Of(3, 2, 5)) {
		t.Fatalf("batched MatMul shape = %v", got.Shape())
	}
	// Check batch 2 against a manual 2-D multiply.
	for i := 0; i < 2; i++ {
		for j := 0; j < 5; j++ {
			var want float64
			for k := 0; k < 4; k++ {
				want += float64(a.At(2, i, k)) * float64(b.At(0, k, j))
			}
			if math.Abs(float64(got.At(2, i, j))-want) > 1e-5 {
				t.Fatalf("batched MatMul[2,%d,%d] = %v, want %v", i, j, got.At(2, i, j), want)
			}
		}
	}
}

func TestGemmTransposeAndBias(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2) // A^T is 2x3
	b := tensor.FromSlice([]float32{1, 0, 0, 1, 1, 1}, 3, 2)
	c := tensor.FromSlice([]float32{10, 20}, 2)
	got := mustEval1(t, NewGemm(1, 1, true, false), a, b, c)
	// A^T = [[1,3,5],[2,4,6]]; A^T*B = [[1+5, 3+5],[2+6, 4+6]] = [[6,8],[8,10]]
	want := tensor.FromSlice([]float32{16, 28, 18, 30}, 2, 2)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Errorf("Gemm = %v, want %v", got.Data(), want.Data())
	}
}

// Property: MatMul distributes over addition (linearity), the algebraic fact
// the paper's distributive rewrites on GEMM rely on (Figure 2b).
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := tensor.New(3, 4).Rand(seed)
		b := tensor.New(3, 4).Rand(seed + 1)
		c := tensor.New(4, 2).Rand(seed + 2)
		mm := NewMatMul()
		ab, _ := Eval1(NewAdd(), a, b)
		lhs, _ := Eval1(mm, ab, c)
		ac, _ := Eval1(mm, a, c)
		bc, _ := Eval1(mm, b, c)
		rhs, _ := Eval1(NewAdd(), ac, bc)
		return tensor.AllClose(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEinsumMatchesMatMul(t *testing.T) {
	a := tensor.New(4, 3).Rand(11)
	b := tensor.New(3, 5).Rand(12)
	em := mustEval1(t, NewEinsum("ij,jk->ik"), a, b)
	mm := mustEval1(t, NewMatMul(), a, b)
	if !tensor.AllClose(em, mm, 1e-5) {
		t.Errorf("Einsum ij,jk->ik != MatMul (max diff %g)", tensor.MaxAbsDiff(em, mm))
	}
	// Attention-style contraction with batch and head dims.
	q := tensor.New(2, 2, 3, 4).Rand(13)
	k := tensor.New(2, 2, 5, 4).Rand(14)
	scores := mustEval1(t, NewEinsum("bhqd,bhkd->bhqk"), q, k)
	if !scores.Shape().Equal(tensor.Of(2, 2, 3, 5)) {
		t.Fatalf("einsum attention shape = %v", scores.Shape())
	}
	var want float64
	for d := 0; d < 4; d++ {
		want += float64(q.At(1, 0, 2, d)) * float64(k.At(1, 0, 4, d))
	}
	if math.Abs(float64(scores.At(1, 0, 2, 4))-want) > 1e-5 {
		t.Errorf("einsum attention value = %v, want %v", scores.At(1, 0, 2, 4), want)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x1x3x3 input, 1x1x2x2 kernel of ones: each output = window sum.
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.Full(1, 1, 1, 2, 2)
	got := mustEval1(t, NewConv(ConvAttrs{}), x, w)
	want := tensor.FromSlice([]float32{12, 16, 24, 28}, 1, 1, 2, 2)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Errorf("Conv = %v, want %v", got.Data(), want.Data())
	}
}

func TestConv2DStridePadBias(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.Full(1, 1, 1, 3, 3)
	bias := tensor.FromSlice([]float32{100}, 1)
	got := mustEval1(t, NewConv(ConvAttrs{Strides: []int{2}, Pads: []int{1}}), x, w, bias)
	if !got.Shape().Equal(tensor.Of(1, 1, 2, 2)) {
		t.Fatalf("Conv stride/pad shape = %v", got.Shape())
	}
	// Top-left padded window covers elements {1,2,4,5} = 12, plus bias.
	if got.At(0, 0, 0, 0) != 112 {
		t.Errorf("Conv[0,0,0,0] = %v, want 112", got.At(0, 0, 0, 0))
	}
}

func TestConvGroupsDepthwise(t *testing.T) {
	// Depthwise conv: groups == channels; each channel convolved separately.
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4, // channel 0
		10, 20, 30, 40, // channel 1
	}, 1, 2, 2, 2)
	w := tensor.FromSlice([]float32{1, 1, 1, 1, 2, 2, 2, 2}, 2, 1, 2, 2)
	got := mustEval1(t, NewConv(ConvAttrs{Groups: 2}), x, w)
	want := tensor.FromSlice([]float32{10, 200}, 1, 2, 1, 1)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Errorf("depthwise Conv = %v, want %v", got.Data(), want.Data())
	}
}

func TestConv3D(t *testing.T) {
	x := tensor.Full(1, 1, 1, 2, 2, 2)
	w := tensor.Full(1, 1, 1, 2, 2, 2)
	got := mustEval1(t, NewConv(ConvAttrs{}), x, w)
	if !got.Shape().Equal(tensor.Of(1, 1, 1, 1, 1)) || got.At(0, 0, 0, 0, 0) != 8 {
		t.Errorf("Conv3D = %v %v, want [1x1x1x1x1] 8", got.Shape(), got.Data())
	}
}

func TestConvTransposeInvertsStride(t *testing.T) {
	// ConvTranspose with a delta kernel scatters inputs at stride positions.
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := tensor.FromSlice([]float32{1}, 1, 1, 1, 1)
	got := mustEval1(t, NewConvTranspose(ConvAttrs{Strides: []int{2}}), x, w)
	if !got.Shape().Equal(tensor.Of(1, 1, 3, 3)) {
		t.Fatalf("ConvTranspose shape = %v", got.Shape())
	}
	if got.At(0, 0, 0, 0) != 1 || got.At(0, 0, 0, 2) != 2 || got.At(0, 0, 2, 2) != 4 || got.At(0, 0, 1, 1) != 0 {
		t.Errorf("ConvTranspose values wrong: %v", got.Data())
	}
}

func TestConvTransposeMatchesGradShape(t *testing.T) {
	// ConvTranspose output shape must invert Conv's shape formula.
	x := tensor.New(1, 3, 8, 8).Rand(5)
	w := tensor.New(3, 4, 3, 3).Rand(6)
	op := NewConvTranspose(ConvAttrs{Strides: []int{2}, Pads: []int{1}})
	got := mustEval1(t, op, x, w)
	if !got.Shape().Equal(tensor.Of(1, 4, 15, 15)) {
		t.Errorf("ConvTranspose shape = %v, want [1x4x15x15]", got.Shape())
	}
}

func TestMaxAveragePool(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	mp := mustEval1(t, NewMaxPool(PoolAttrs{Kernel: []int{2}, Strides: []int{1}}), x)
	wantM := tensor.FromSlice([]float32{5, 6, 8, 9}, 1, 1, 2, 2)
	if !tensor.AllClose(mp, wantM, 0) {
		t.Errorf("MaxPool = %v, want %v", mp.Data(), wantM.Data())
	}
	ap := mustEval1(t, NewAveragePool(PoolAttrs{Kernel: []int{2}, Strides: []int{1}}), x)
	wantA := tensor.FromSlice([]float32{3, 4, 6, 7}, 1, 1, 2, 2)
	if !tensor.AllClose(ap, wantA, 1e-5) {
		t.Errorf("AveragePool = %v, want %v", ap.Data(), wantA.Data())
	}
	gap := mustEval1(t, NewGlobalAveragePool(), x)
	if !gap.Shape().Equal(tensor.Of(1, 1, 1, 1)) || gap.At(0, 0, 0, 0) != 5 {
		t.Errorf("GlobalAveragePool = %v %v", gap.Shape(), gap.Data())
	}
}

func TestAveragePoolPadExcluded(t *testing.T) {
	x := tensor.FromSlice([]float32{4}, 1, 1, 1, 1)
	ap := mustEval1(t, NewAveragePool(PoolAttrs{Kernel: []int{2}, Strides: []int{1}, Pads: []int{1}}), x)
	// Every window holds only the single real element; padding excluded.
	for _, v := range ap.Data() {
		if v != 4 {
			t.Fatalf("AveragePool count_include_pad=false violated: %v", ap.Data())
		}
	}
}

func TestReduceKinds(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	cases := []struct {
		kind ReduceKind
		axis int
		want []float32
		dims tensor.Shape
	}{
		{ReduceSum, 1, []float32{6, 15}, tensor.Of(2)},
		{ReduceMean, 1, []float32{2, 5}, tensor.Of(2)},
		{ReduceProd, 1, []float32{6, 120}, tensor.Of(2)},
		{ReduceMax, 0, []float32{4, 5, 6}, tensor.Of(3)},
		{ReduceMin, 0, []float32{1, 2, 3}, tensor.Of(3)},
	}
	for _, c := range cases {
		got := mustEval1(t, NewReduce(c.kind, false, c.axis), x)
		if !got.Shape().Equal(c.dims) {
			t.Errorf("%v shape = %v, want %v", c.kind, got.Shape(), c.dims)
			continue
		}
		want := tensor.FromSlice(c.want, c.dims...)
		if !tensor.AllClose(got, want, 1e-5) {
			t.Errorf("%v = %v, want %v", c.kind, got.Data(), c.want)
		}
	}
	// keepDims preserves rank.
	kd := mustEval1(t, NewReduce(ReduceSum, true, 1), x)
	if !kd.Shape().Equal(tensor.Of(2, 1)) {
		t.Errorf("keepDims shape = %v, want [2x1]", kd.Shape())
	}
	// Reduce over all axes.
	all := mustEval1(t, NewReduce(ReduceSum, false), x)
	if all.Shape().Rank() != 0 || all.At() != 21 {
		t.Errorf("full reduce = %v %v", all.Shape(), all.Data())
	}
}

// Property: ReduceSum is linear — the algebraic fact behind the paper's
// commutative rewrites (ReduceSum(BitShift(A)) == BitShift(ReduceSum(A))).
func TestReduceSumLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := tensor.New(3, 5).Rand(seed)
		b := tensor.New(3, 5).Rand(seed + 9)
		rs := NewReduce(ReduceSum, false, 1)
		ab, _ := Eval1(NewAdd(), a, b)
		lhs, _ := Eval1(rs, ab)
		ra, _ := Eval1(rs, a)
		rb, _ := Eval1(rs, b)
		rhs, _ := Eval1(NewAdd(), ra, rb)
		return tensor.AllClose(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCumSum(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	got := mustEval1(t, NewCumSum(0), x)
	want := tensor.FromSlice([]float32{1, 3, 6, 10}, 4)
	if !tensor.AllClose(got, want, 1e-6) {
		t.Errorf("CumSum = %v, want %v", got.Data(), want.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := tensor.New(3, 7).Rand(21)
	sm := mustEval1(t, NewSoftmax(-1), x)
	for i := 0; i < 3; i++ {
		var sum float64
		for j := 0; j < 7; j++ {
			v := float64(sm.At(i, j))
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("softmax row %d sums to %v", i, sum)
		}
	}
	// LogSoftmax == log(Softmax).
	lsm := mustEval1(t, NewLogSoftmax(-1), x)
	for off, v := range sm.Data() {
		if math.Abs(math.Log(float64(v))-float64(lsm.Data()[off])) > 1e-5 {
			t.Fatalf("LogSoftmax mismatch at %d", off)
		}
	}
}

// softmaxMaxULP is the numeric contract of Softmax and LogSoftmax: at most
// 4 ULP from the float32 rounding of the float64 math.Exp definition
// (float64 differences x − max, exponentials, sum and log), the cap the
// transcendental rows of the README's numeric-contract table share. That
// table records the maxima TestSoftmaxAccuracy logs.
const softmaxMaxULP = 4

// TestSoftmaxAccuracy measures Softmax and LogSoftmax against their float64
// math.Exp definition and holds them to softmaxMaxULP: seeded rows of 416
// lengths from 1 to 1024 elements (16 fixed, 400 drawn), four rows each of
// logits uniform in ±1, ±8 and ±80. The rows run through the row kernel,
// which the block-parity suites hold to the oracle bit for bit.
func TestSoftmaxAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	lens := []int{1, 2, 3, 5, 7, 8, 9, 16, 17, 33, 64, 100, 257, 512, 1000, 1024}
	for range 400 {
		lens = append(lens, 1+rng.Intn(1024))
	}
	var worst [2]int64
	var at [2]string
	for _, d := range lens {
		for _, scale := range []float64{1, 8, 80} {
			const rows = 4
			x := tensor.New(rows, d)
			for i := range x.Data() {
				x.Data()[i] = float32((2*rng.Float64() - 1) * scale)
			}
			for k, op := range []Operator{NewSoftmax(-1), NewLogSoftmax(-1)} {
				src := virtualize(t, op, AsSource(x))
				got := make([]float32, rows*d)
				blk, _ := AsBlock(src)
				blk.LoadBlock(got, 0, len(got))
				for r := range rows {
					row := x.Data()[r*d : (r+1)*d]
					m := math.Inf(-1)
					for _, v := range row {
						m = math.Max(m, float64(v))
					}
					var sum float64
					for _, v := range row {
						sum += math.Exp(float64(v) - m)
					}
					for i, v := range row {
						want := float32(math.Exp(float64(v)-m) / sum)
						if k == 1 {
							want = float32(float64(v) - m - math.Log(sum))
						}
						if u := ulps(got[r*d+i], want); u > worst[k] {
							worst[k] = u
							at[k] = fmt.Sprintf("x %v in a %d-element row of max %v: %v, want %v", v, d, m, got[r*d+i], want)
						}
					}
				}
			}
		}
	}
	for k, name := range []string{"Softmax", "LogSoftmax"} {
		t.Logf("%s: max %d ULP, at %s", name, worst[k], at[k])
		if worst[k] > softmaxMaxULP {
			t.Errorf("%s: %d ULP from the float64 definition, at %s; the contract is %d", name, worst[k], at[k], softmaxMaxULP)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := tensor.FromSlice([]float32{1000, 1001, 1002}, 3)
	sm := mustEval1(t, NewSoftmax(0), x)
	for _, v := range sm.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax not stable on large inputs: %v", sm.Data())
		}
	}
}

func TestBatchNormalization(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	scale := tensor.FromSlice([]float32{2, 1}, 2)
	bias := tensor.FromSlice([]float32{0, 10}, 2)
	mean := tensor.FromSlice([]float32{1, 3}, 2)
	variance := tensor.FromSlice([]float32{4, 1}, 2)
	got := mustEval1(t, NewBatchNormalization(0), x, scale, bias, mean, variance)
	// ch0: 2*(x-1)/2 = x-1 → {0,1}; ch1: (x-3)/1+10 → {10,11}.
	want := tensor.FromSlice([]float32{0, 1, 10, 11}, 1, 2, 2)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Errorf("BatchNormalization = %v, want %v", got.Data(), want.Data())
	}
}

func TestInstanceNormalization(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 3, 2, 2}, 1, 1, 4)
	scale := tensor.FromSlice([]float32{1}, 1)
	bias := tensor.FromSlice([]float32{0}, 1)
	got := mustEval1(t, NewInstanceNormalization(1e-9), x, scale, bias)
	// mean=2, var=0.5 → normalized {-sqrt2, sqrt2, 0, 0}.
	s := float32(math.Sqrt(2))
	want := tensor.FromSlice([]float32{-s, s, 0, 0}, 1, 1, 4)
	if !tensor.AllClose(got, want, 1e-3) {
		t.Errorf("InstanceNormalization = %v, want %v", got.Data(), want.Data())
	}
	// Output mean ~0 and variance ~1 for random input.
	r := tensor.New(1, 2, 9).Rand(8)
	out := mustEval1(t, NewInstanceNormalization(1e-9), r,
		tensor.Full(1, 2), tensor.Full(0, 2))
	for c := 0; c < 2; c++ {
		var sum float64
		for i := 0; i < 9; i++ {
			sum += float64(out.At(0, c, i))
		}
		if math.Abs(sum/9) > 1e-4 {
			t.Errorf("InstanceNorm channel %d mean = %v, want ~0", c, sum/9)
		}
	}
}

func TestFLOPsConventions(t *testing.T) {
	// Conv FLOPs = 2 * out_elems * Cin/g * kernel (paper-style MAC counting).
	conv := NewConv(ConvAttrs{})
	in := []tensor.Shape{tensor.Of(1, 3, 8, 8), tensor.Of(16, 3, 3, 3)}
	out := 1 * 16 * 6 * 6
	if f := conv.FLOPs(in); f != int64(2*out*3*9) {
		t.Errorf("Conv FLOPs = %d, want %d", f, 2*out*3*9)
	}
	// The bias is one add per output element, for Conv and ConvTranspose
	// alike; ConvTranspose counts 2 per input element × M/g × kernel.
	if f := conv.FLOPs(append(in, tensor.Of(16))); f != int64(2*out*3*9+out) {
		t.Errorf("Conv+bias FLOPs = %d, want %d", f, 2*out*3*9+out)
	}
	convT := NewConvTranspose(ConvAttrs{Strides: []int{2, 2}, Groups: 2})
	inT := []tensor.Shape{tensor.Of(1, 4, 5, 5), tensor.Of(4, 3, 2, 2)} // M = 6, out 10×10
	macs := 4 * 5 * 5 * 3 * 2 * 2
	if f := convT.FLOPs(inT); f != int64(2*macs) {
		t.Errorf("ConvTranspose FLOPs = %d, want %d", f, 2*macs)
	}
	if f := convT.FLOPs(append(inT, tensor.Of(6))); f != int64(2*macs+6*10*10) {
		t.Errorf("ConvTranspose+bias FLOPs = %d, want %d", f, 2*macs+6*10*10)
	}
	// Elementwise unary = 1 FLOP per element.
	if f := NewExp().FLOPs([]tensor.Shape{tensor.Of(4, 5)}); f != 20 {
		t.Errorf("Exp FLOPs = %d, want 20", f)
	}
	// Reduce = 1 FLOP per input element.
	if f := NewReduce(ReduceSum, false, 1).FLOPs([]tensor.Shape{tensor.Of(4, 5)}); f != 20 {
		t.Errorf("ReduceSum FLOPs = %d, want 20", f)
	}
}
