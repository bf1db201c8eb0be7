package ops

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dnnfusion/internal/tensor"
)

// finishSpecials are float64 accumulators that stress finish's rounding:
// signed zeros and infinities, NaNs with payloads (a signaling one among
// them), values whose float32 is subnormal or zero, and values just past
// float32's range that round to ±MaxFloat32 or overflow to ±Inf.
var finishSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff8_1234_5678_9abc),
	math.Float64frombits(0x7ff0_0000_dead_0001),
	1e-40, -3e-42, 1e-46, -1e-50, math.SmallestNonzeroFloat64,
	math.MaxFloat32, 3.4028235677973366e+38, -3.4028236e+38, 3.5e38, -1e300,
}

// finishData is n accumulators, each one of finishSpecials with probability
// p, else a random normal value of a random scale.
func finishData(rng *rand.Rand, n int, p float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		if rng.Float64() < p {
			d[i] = finishSpecials[rng.Intn(len(finishSpecials))]
		} else {
			d[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(60)-30))
		}
	}
	return d
}

// TestFinishSIMDMatchesGo: finishPD (finishSIMD, whole 4-element groups)
// writes what the Go arms of contraction.finish write, bit for bit, NaN
// payloads included: float32(v) for a plain contraction (alpha 1, addend
// −0) and float32(float64(v·alpha) + c) for a constant addend, over the
// special accumulators and addends and every length from 0 to 19.
func TestFinishSIMDMatchesGo(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2 finish: this build or CPU runs the Go loops only")
	}
	rng := rand.New(rand.NewSource(15))
	for _, alpha := range []float64{1, -1, 0.5, 3, math.Inf(1), math.Float64frombits(0x7ff8_0000_0000_0bad)} {
		for _, c := range append([]float64{math.Copysign(0, -1), 0, 1.5, -2.75e-39}, finishSpecials...) {
			for n := 0; n < 20; n++ {
				acc := finishData(rng, n, 0.4)
				got := make([]float32, n)
				done := finishSIMD(got, acc, alpha, c)
				if done != n&^3 {
					t.Fatalf("finishSIMD wrote %d of %d elements", done, n)
				}
				for i, v := range acc[:done] {
					want := float32(float64(v*alpha) + c)
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("alpha %v, c %v: float32(%v·alpha + c) = %#08x, Go arm %#08x", alpha, c, v, math.Float32bits(got[i]), math.Float32bits(want))
					}
				}
			}
		}
	}
	// The plain arm: alpha 1 and c −0 are float32(v).
	for n := 0; n < 64; n++ {
		acc := finishData(rng, n, 0.5)
		got := make([]float32, n)
		for i, v := range acc[:finishSIMD(got, acc, 1, math.Copysign(0, -1))] {
			if want := float32(v); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("float32(%v) = %#08x, Go arm %#08x", v, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	}
}

// TestInterleaveSIMDMatchesGo: interleave4 (interleaveSIMD, whole 4-column
// runs) writes the Go loop's channel-interleaved widening bit for bit,
// signaling NaNs quieted alike, over every length from 0 to 19.
func TestInterleaveSIMDMatchesGo(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2 interleave: this build or CPU runs the Go loop only")
	}
	rng := rand.New(rand.NewSource(16))
	for n := 0; n < 20; n++ {
		var x [dwLanes][]float32
		for l := range x {
			x[l] = tileData(rng, n, tileSpecials, 0.5)
		}
		got := tileGarbage(dwLanes * n)
		done := interleaveSIMD(got, x[0], x[1], x[2], x[3])
		if done != n&^3 {
			t.Fatalf("interleaveSIMD wrote %d of %d columns", done, n)
		}
		for i := 0; i < done; i++ {
			for l := range x {
				if g, w := math.Float64bits(got[i*dwLanes+l]), math.Float64bits(float64(x[l][i])); g != w {
					t.Fatalf("n %d: column %d channel %d = %#016x, float64(%#08x) = %#016x", n, i, l, g, math.Float32bits(x[l][i]), w)
				}
			}
		}
	}
}

// expectBoundsPanic runs call and fails unless it panics with a Go
// runtime error.
func expectBoundsPanic(t *testing.T, name string, call func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Errorf("%s one element short: want a runtime.Error panic", name)
		}
	}()
	call()
}

// TestDepthwiseSIMDBounds: depthwise.simd, finishSIMD and interleaveSIMD
// index the last band, weight, output and plane element their routine
// touches before the call, so a slice one element short fails as a
// Go bounds panic instead of a stray access. The geometries read their
// band to its last element: stride 1 and 2, a one-row panel, and a
// 5×3 kernel at dilation 2.
func TestDepthwiseSIMDBounds(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2+FMA stencil: this build or CPU runs the Go loops only")
	}
	for _, g := range []struct {
		attrs ConvAttrs
		in    [2]int
		kern  [2]int
	}{
		{ConvAttrs{Pads: []int{1}, Groups: dwLanes}, [2]int{9, 9}, [2]int{3, 3}},
		{ConvAttrs{Strides: []int{2}, Pads: []int{1}, Groups: dwLanes}, [2]int{9, 9}, [2]int{3, 3}},
		{ConvAttrs{Pads: []int{1}, Groups: dwLanes}, [2]int{1, 7}, [2]int{3, 3}},
		{ConvAttrs{Dilations: []int{2}, Groups: dwLanes}, [2]int{10, 7}, [2]int{5, 3}},
	} {
		name := fmt.Sprintf("%s in %v k%v", g.attrs.normalized(2).key(), g.in, g.kern)
		x := randSource(500, 1, dwLanes, g.in[0], g.in[1])
		src := virtualize(t, NewConv(g.attrs), x, randSource(501, dwLanes, 1, g.kern[0], g.kern[1]))
		c := depthwiseOf(t, name, src)
		n := c.n
		xData, _ := FlatData(x)
		planes := make([]int, dwLanes)
		for l := range planes {
			planes[l] = l * g.in[0] * g.in[1]
		}
		c.dw.fill(c.band, xData, planes, 0, n)
		band := c.band[:dwLanes*c.dw.bandElems(n)]
		wts := make([]float64, dwLanes*c.k)
		dst := make([]float32, (dwLanes-1)*n+n)
		var bias [dwLanes]float64
		call := func(band, wts []float64, dst []float32) {
			if !c.dw.simd(dst, n, wts, &bias, band, 0, n) {
				t.Fatalf("%s: depthwise4 reports a NaN accumulator over finite data", name)
			}
		}
		call(band, wts, dst)
		expectBoundsPanic(t, name+": band", func() { call(band[:len(band)-1:len(band)-1], wts, dst) })
		expectBoundsPanic(t, name+": taps", func() { call(band, wts[:len(wts)-1:len(wts)-1], dst) })
		expectBoundsPanic(t, name+": output", func() { call(band, wts, dst[:len(dst)-1:len(dst)-1]) })
	}
	acc, out := make([]float64, 13), make([]float32, 13)
	finishSIMD(out, acc[:12], 1, 0)
	expectBoundsPanic(t, "finish output", func() { finishSIMD(out[:11:11], acc[:12], 1, 0) })
	x := make([]float32, 8)
	dst := make([]float64, dwLanes*8)
	interleaveSIMD(dst, x, x, x, x)
	expectBoundsPanic(t, "interleave band", func() { interleaveSIMD(dst[:len(dst)-1:len(dst)-1], x, x, x, x) })
	for l := 1; l < dwLanes; l++ {
		planes := [dwLanes][]float32{x, x, x, x}
		planes[l] = x[:7:7]
		expectBoundsPanic(t, fmt.Sprintf("interleave plane %d", l), func() { interleaveSIMD(dst, planes[0], planes[1], planes[2], planes[3]) })
	}
}

// TestConvNaNPayloads: where a NaN weight (a payload per output
// channel) meets a NaN input in one product, and where the two NaNs meet
// in one accumulator, every blocked Conv path writes NaN where the oracle
// does, carrying one of the two payloads, and every other output bit for
// bit: the 3×3 stencil, the generic-tap stencil (5×5, and a dilated 3×3) —
// each through a channel group, whose NaN group the Go loops redo, and a
// remainder GEMM — and the im2col tile, whose A operand is the weights.
// Which of the two payloads survives is not pinned: Go's register
// allocation, not the source's operand order, picks the first operand of
// each MULSD and ADDSD, whose NaN x86 keeps (README, numeric contract).
func TestConvNaNPayloads(t *testing.T) {
	const ch, xNaN = 5, 0xffc00abc
	for _, tc := range []struct {
		name             string
		kern, dil, group int
	}{
		{"3x3 stencil", 3, 1, ch}, {"5x5 taps", 5, 1, ch}, {"dilated taps", 3, 2, ch}, {"im2col", 3, 1, 1},
	} {
		x := tensor.New(1, ch, 7, 7).Rand(421)
		w := tensor.New(ch, ch/tc.group, tc.kern, tc.kern).Rand(422)
		mid := tc.kern / 2
		for c := 0; c < ch; c++ {
			w.Set(math.Float32frombits(0x7fc00001+uint32(c)), c, 0, mid, mid)
			if tc.group > 1 || c == 0 {
				x.Set(math.Float32frombits(xNaN), 0, c, 3, 3)
			}
		}
		// Output (3, 3)'s centre tap reads input (3, 3): NaN times NaN. The
		// im2col conv sums input channel 0 first, where both NaNs are.
		attrs := ConvAttrs{Pads: []int{mid * tc.dil}, Dilations: []int{tc.dil}, Groups: tc.group}
		src := virtualize(t, NewConv(attrs), AsSource(x), AsSource(w), randSource(423, ch))
		if tc.group > 1 {
			depthwiseOf(t, tc.name, src)
		}
		want := loadAll(src)
		got := make([]float32, len(want))
		blk, _ := AsBlock(src)
		blk.LoadBlock(got, 0, len(got))
		plane := src.Shape()[2:].NumElements()
		for i, v := range got {
			g, x := math.Float32bits(v), math.Float32bits(want[i])
			wNaN := 0x7fc00001 + uint32(i/plane)
			switch {
			case x != wNaN && x != xNaN && g != x:
				t.Fatalf("%s: element %d = %#08x, oracle %#08x", tc.name, i, g, x)
			case g != x && g != wNaN && g != xNaN:
				t.Fatalf("%s: element %d = %#08x, want NaN %#08x or %#08x (oracle %#08x)", tc.name, i, g, wNaN, uint32(xNaN), x)
			case g != x:
				t.Logf("%s: element %d keeps %#08x, oracle %#08x", tc.name, i, g, x)
			}
		}
	}
}
