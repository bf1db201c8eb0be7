package ops

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// simdCase is an operator whose typed loop has an AVX2 routine
// (pointwise_amd64.s), under a name for subtests and benchmarks.
type simdCase struct {
	name string
	op   *pointwise
}

// simdCases are the operators with an AVX2 routine, one case at least for
// every typed kind but Identity (TestSIMDCasesCoverEveryKind): Clip as ReLU6
// (lower bound +0, hi 6, 1 and +Inf) and as the generic minf(maxf(x, lo),
// hi), once with the lower bound −0, which takes the generic loop.
func simdCases() []simdCase {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	cases := []simdCase{
		{"Add", NewAdd().(*pointwise)}, {"Sub", NewSub().(*pointwise)}, {"Mul", NewMul().(*pointwise)},
		{"Div", NewDiv().(*pointwise)}, {"Min", NewMin().(*pointwise)}, {"Max", NewMax().(*pointwise)},
		{"AddConst", NewAddConst(0.75).(*pointwise)}, {"MulConst", NewMulConst(-1.25).(*pointwise)},
		{"Neg", NewNeg().(*pointwise)}, {"Abs", NewAbs().(*pointwise)},
		{"Square", NewSquare().(*pointwise)}, {"Reciprocal", NewReciprocal().(*pointwise)}, {"Sqrt", NewSqrt().(*pointwise)},
		{"LeakyRelu", NewLeakyRelu(0.1).(*pointwise)},
		{"Relu", NewRelu().(*pointwise)},
		{"Relu6", NewClip(0, 6).(*pointwise)}, {"Clip0to1", NewClip(0, 1).(*pointwise)}, {"Clip0toInf", NewClip(0, inf).(*pointwise)},
		{"Clip", NewClip(-1, 1).(*pointwise)}, {"ClipNegZero", NewClip(negZero, 6).(*pointwise)},
		{"Exp", NewExp().(*pointwise)}, {"Sigmoid", NewSigmoid().(*pointwise)},
		{"Tanh", NewTanh().(*pointwise)}, {"Erf", NewErf().(*pointwise)},
	}
	return cases
}

// TestSIMDCasesCoverEveryKind: every typed kind but Identity (a copy) has a
// simdCases entry, so the sweep, the bounds, tiny-lane and NaN-payload
// checks reach each routine; a new kind without one fails here.
func TestSIMDCasesCoverEveryKind(t *testing.T) {
	covered := make(map[pwKind]bool)
	for _, c := range simdCases() {
		covered[c.op.kind] = true
	}
	for k := kindGeneric + 1; k < kindCount; k++ {
		if k != kindIdentity && !covered[k] {
			t.Errorf("pwKind %d has no simdCases entry", k)
		}
	}
	if covered[kindGeneric] || covered[kindIdentity] {
		t.Error("simdCases lists a generic or Identity operator, which has no routine")
	}
}

// binary reports whether the operator reads a second operand.
func (c simdCase) binary() bool { return c.op.arity == 2 }

// floatsOf returns the floats with the given bit patterns.
func floatsOf(bits ...uint32) []float32 {
	out := make([]float32, len(bits))
	for i, u := range bits {
		out[i] = math.Float32frombits(u)
	}
	return out
}

// simdSpecials are the operands of the NaN-payload and tail checks: ±0, ±1,
// ±Inf, ±subnormal, ±MaxFloat32, a quiet NaN with one payload and a
// signalling NaN with another.
var simdSpecials = floatsOf(0, 0x80000000, 0x3f800000, 0xbf800000, 0x7f800000, 0xff800000,
	0x00000001, 0x807fffff, 0x7f7fffff, 0xff7fffff, 0x7fc12345, 0x7f800abc)

// bitsOf is f's bit patterns, in place.
func bitsOf(f []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

// firstBitDiff returns the first index where got and want differ in their
// bits, or -1. Equal runs are compared as bytes (memequal): the sweeps spend
// most of their time here otherwise.
func firstBitDiff(got, want []float32) int {
	bytesOf := func(f []float32) []byte {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
	}
	want = want[:len(got)]
	if bytes.Equal(bytesOf(got), bytesOf(want)) {
		return -1
	}
	w := bitsOf(want)
	for i, u := range bitsOf(got) {
		if u != w[i] {
			return i
		}
	}
	return -1
}

// TestPointwiseSIMDBinaryNaN: every binary simdCase (Add, Sub, Mul, Div,
// Min, Max) on every pair of the specials, and AddConst, MulConst and
// LeakyRelu with each special as the constant over every special, give the
// operator closure's bits (fn2, fn1) — which NaN survives a two-NaN
// operation included, the specials holding two payloads — through the typed
// loop (the AVX2 routine where the CPU has it) and through the Go loops
// alone. Then each binary op on seeded samples, whole groups and a tail.
func TestPointwiseSIMDBinaryNaN(t *testing.T) {
	n := len(simdSpecials)
	a, b := make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i], b[i] = simdSpecials[i/n], simdSpecials[i%n]
	}
	check := func(name string, op *pointwise, a, b []float32, closure func(i int) float32) {
		want := make([]float32, len(a))
		for i := range want {
			want[i] = closure(i)
		}
		for loop, run := range map[string]func(op *pointwise, d, a, b []float32){"typed loop": pointwiseLoop, "Go loop": pointwiseGo} {
			got := make([]float32, len(a))
			run(op, got, a, b)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("%s %s at (%#08x, %#08x) = %#08x, closure %#08x", name, loop,
					math.Float32bits(a[i]), math.Float32bits(b[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	rng := rand.New(rand.NewSource(46))
	sa, sb := make([]float32, 4*blockLen+5), make([]float32, 4*blockLen+5)
	for i := range sa {
		sa[i], sb[i] = float32(rng.NormFloat64()*4), float32(rng.NormFloat64()*4)
	}
	for _, c := range simdCases() {
		if op := c.op; c.binary() {
			check(c.name, op, a, b, func(i int) float32 { return op.fn2(a[i], b[i]) })
			check(c.name+" sampled", op, sa, sb, func(i int) float32 { return op.fn2(sa[i], sb[i]) })
		}
	}
	// Each special twice over: every one lands in a whole 8-lane group.
	xs := append(append([]float32(nil), simdSpecials...), simdSpecials...)
	for _, c := range simdSpecials {
		for _, mk := range []func(float32) Operator{NewAddConst, NewMulConst, NewLeakyRelu} {
			op := mk(c).(*pointwise)
			cs := make([]float32, len(xs))
			for i := range cs {
				cs[i] = c
			}
			check(op.name, op, xs, cs, func(i int) float32 { return op.fn1(xs[i]) })
		}
	}
}

// TestPointwiseSIMDBounds: an operand one element short of what a routine
// reads fails as a Go bounds panic in pointwiseSIMD, before the assembly
// runs, for every routine.
func TestPointwiseSIMDBounds(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2 routines: this build or CPU runs the Go loops only")
	}
	for _, c := range simdCases() {
		for _, n := range []int{8, 24} {
			d, a, b := make([]float32, n), make([]float32, n), make([]float32, n)
			if !c.binary() {
				b = nil
			}
			if got := pointwiseSIMD(c.op, d, a, b); got != n {
				t.Fatalf("%s over %d elements: pointwiseSIMD wrote %d", c.name, n, got)
			}
			// Capacity is what bounds memory safety: the short operands are
			// cut with full slice expressions.
			short := map[string]func(){"a": func() { pointwiseSIMD(c.op, d, a[:n-1:n-1], b) }}
			if c.binary() {
				short["b"] = func() { pointwiseSIMD(c.op, d, a, b[:n-1:n-1]) }
			}
			for name, call := range short {
				func() {
					defer func() {
						if _, ok := recover().(runtime.Error); !ok {
							t.Errorf("%s over %d elements, %s one element short: want a runtime.Error panic", c.name, n, name)
						}
					}()
					call()
				}()
			}
		}
	}
}

// BenchmarkPointwiseLoop reports each routine's cost in ns per element over
// one 512-element block (blockLen), through the typed loop (simd) and
// through the Go loops alone (go).
func BenchmarkPointwiseLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y, d := make([]float32, blockLen), make([]float32, blockLen), make([]float32, blockLen)
	for i := range x {
		x[i], y[i] = float32(rng.NormFloat64()*2), float32(rng.NormFloat64()*2)
	}
	for _, c := range simdCases() {
		yb := y
		if !c.binary() {
			yb = nil
		}
		run := func(b *testing.B, loop func(op *pointwise, d, a, b []float32)) {
			for b.Loop() {
				loop(c.op, d, x, yb)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockLen), "ns/elem")
		}
		b.Run(c.name+"/simd", func(b *testing.B) {
			if !avx2FMA {
				b.Skip("no AVX2 routines in this build or on this CPU")
			}
			run(b, pointwiseLoop)
		})
		b.Run(c.name+"/go", func(b *testing.B) { run(b, pointwiseGo) })
	}
}
