//go:build amd64 && !purego

package ops

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"dnnfusion/internal/bitsweep"
)

// TestPointwiseSIMDSweep proves every unary AVX2 routine equal to its
// scalar function — Neg, absf, Square, Reciprocal, sqrtf, LeakyRelu, expf,
// sigmoid32, tanh32, erf32, relu, ReLU6 with hi 6, 1 and +Inf, and generic
// Clip — bit for bit on every float32: all 2³² patterns, or under -short and
// the race detector a strided sweep plus a dense window around every edge of
// the functions' case analysis.
//
//   - Neg, Abs, Square, Reciprocal, Sqrt, LeakyRelu, Relu and generic Clip:
//     the routine against the Go loop on every input.
//     ReLU6 is not swept again here: TestBranchFreeClip runs the same typed
//     loop, whose groups are this routine, over every float32 for hi 6, 1
//     and +Inf against the closure.
//   - Tanh and Erf are not swept here either: TestTranscendentalSweep holds
//     each routine to tanh32 or erf32 bit for bit, at x and at −x, in the
//     pass that measures the scalar function, so each runs once per input.
//   - Exp and Sigmoid: the routine over every group of 8 consecutive
//     patterns. A group it computes must match the Go loop; a group it hands
//     back (Go then computes it with the scalar function) must hold a lane
//     off the fast path, a NaN or |x| above hi. Each pattern within 2¹⁶ of
//     2⁻³⁰, hi and +Inf, put in a group of 7 fast-path lanes, must be handed
//     back exactly when it is off the path itself: the routine flushes a
//     lane up to 2⁻³⁰ to +0 and keeps it.
//
// Then, on special values, the typed loop over lengths 1 to 17 (the tails
// past the last 8-lane group) in place and out of place, and the hand-over
// in Exp and Sigmoid: a group with a lane off the fast path is Go's, every
// other group the routine's.
func TestPointwiseSIMDSweep(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2 routines: this CPU runs the Go loops only")
	}
	type sweepCase struct {
		simdCase
		// For Exp and Sigmoid, the raw routine and the top of its fast path:
		// a lane is off it when the bits of |x| are above hi (NaN included).
		routine func(d, a *float32, n int) int
		hi      uint32
		// swept is false for ReLU6, which TestBranchFreeClip sweeps, and
		// for Tanh and Erf, which TestTranscendentalSweep sweeps.
		swept bool
		bad   atomic.Int64
	}
	var cases []*sweepCase
	for _, c := range simdCases() {
		if c.binary() || c.op.kind == kindAddConst || c.op.kind == kindMulConst {
			continue
		}
		relu6 := c.op.kind == kindClip && math.Float32bits(c.op.lo) == 0
		sc := &sweepCase{simdCase: c, swept: !relu6 && c.op.kind != kindTanh && c.op.kind != kindErf}
		switch c.op.kind {
		case kindExp:
			sc.routine, sc.hi = expPS, 0x42ae0000
		case kindSigmoid:
			sc.routine, sc.hi = sigmoidPS, 0x42a00000
		}
		sc.bad.Store(-1)
		cases = append(cases, sc)
	}
	const n = 1 << 12
	type lane struct{ in, simd, scalar []float32 }
	lanes := make([]lane, runtime.GOMAXPROCS(0))
	for w := range lanes {
		lanes[w] = lane{make([]float32, n), make([]float32, n), make([]float32, n)}
	}
	// offPath reports a lane the routine hands back to Go.
	offPath := func(x float32, hi uint32) bool { return math.Float32bits(x)&^(1<<31) > hi }
	// compare notes the first input whose routine and Go-loop bits differ.
	compare := func(c *sweepCase, in, simd, scalar []float32) {
		if j := firstBitDiff(simd, scalar); j >= 0 {
			c.bad.CompareAndSwap(-1, int64(math.Float32bits(in[j])))
		}
	}
	ranges := bitsweep.Ranges(fullSweep(), append(slices.Clone(transcendentalEdges), 0x40c00000, 0xc0c00000)...) // and ±6
	bitsweep.Parallel(ranges, func(w int, from, to, step uint64) {
		l := &lanes[w]
		for u := from; u < to; {
			in, m := l.in, 0
			for ; m < n && u < to; m, u = m+1, u+step {
				in[m] = math.Float32frombits(uint32(u))
			}
			for ; m%8 != 0; m++ {
				in[m] = in[0]
			}
			in, simd, scalar := in[:m], l.simd[:m], l.scalar[:m]
			for _, c := range cases {
				if !c.swept {
					continue
				}
				if c.routine != nil {
					for j := 0; j < m; j += 8 {
						if done := c.routine(&simd[j], &in[j], m-j); done > 0 {
							pointwiseGo(c.op, scalar[j:j+done], in[j:j+done], nil)
							compare(c, in[j:j+done], simd[j:j+done], scalar[j:j+done])
							j += done
						}
						if j < m && !slices.ContainsFunc(in[j:j+8], func(x float32) bool { return offPath(x, c.hi) }) {
							c.bad.CompareAndSwap(-1, int64(math.Float32bits(in[j]))) // a fast-path group handed back
						}
					}
					continue
				}
				if pointwiseSIMD(c.op, simd, in, nil) != m {
					c.bad.CompareAndSwap(-1, 1<<32)
					continue
				}
				pointwiseGo(c.op, scalar, in, nil)
				compare(c, in, simd, scalar)
			}
		}
	})
	// Per lane, the fast-path test near its bounds: 2⁻³⁰, hi and +Inf.
	group := make([]float32, 16) // x and 7 fast-path lanes, then the output
	for _, c := range cases {
		if c.routine == nil {
			continue
		}
		for i := 1; i < 8; i++ {
			group[i] = 1
		}
		for _, bound := range []uint32{0x30800000, c.hi, 0x7f800000} {
			for u := bound - 1<<16; u <= bound+1<<16; u++ {
				for _, sign := range []uint32{0, 1 << 31} {
					x := math.Float32frombits(u | sign)
					group[0] = x
					if handed := c.routine(&group[8], &group[0], 8) == 0; handed != offPath(x, c.hi) {
						c.bad.CompareAndSwap(-1, int64(u|sign))
					}
				}
			}
		}
	}
	for _, c := range cases {
		switch u := c.bad.Load(); {
		case u == 1<<32:
			t.Errorf("%s: pointwiseSIMD did not run its routine", c.name)
		case u >= 0:
			x := math.Float32frombits(uint32(u))
			got, want := make([]float32, 8), make([]float32, 1)
			pointwiseSIMD(c.op, got, []float32{x, 1, 1, 1, 1, 1, 1, 1}, nil)
			pointwiseGo(c.op, want, []float32{x}, nil)
			t.Errorf("%s(%#08x): typed loop %#08x, Go loop %#08x", c.name, u, math.Float32bits(got[0]), math.Float32bits(want[0]))
		}
	}

	// Tails and aliasing: the specials shifted through lengths 1…17.
	for _, c := range cases {
		for length := 1; length <= 17; length++ {
			in := make([]float32, length)
			for i := range in {
				in[i] = simdSpecials[(i+length)%len(simdSpecials)]
			}
			want, got := make([]float32, length), make([]float32, length)
			pointwiseGo(c.op, want, in, nil)
			pointwiseLoop(c.op, got, in, nil)
			inPlace := slices.Clone(in)
			pointwiseLoop(c.op, inPlace, inPlace, nil)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("%s over %d elements at %d: %#08x, Go loop %#08x", c.name, length, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			if i := firstBitDiff(inPlace, want); i >= 0 {
				t.Errorf("%s in place over %d elements at %d: %#08x, Go loop %#08x", c.name, length, i, math.Float32bits(inPlace[i]), math.Float32bits(want[i]))
			}
		}
	}

	// The hand-over: one lane off the fast path in group g of a block.
	rng := rand.New(rand.NewSource(35))
	block := make([]float32, blockLen)
	for i := range block {
		block[i] = float32(rng.Float64()*20 - 10)
	}
	for _, f := range []struct {
		name    string
		routine func(d, a *float32, n int) int
		scalar  func(float32) float32
		op      *pointwise
	}{{"Exp", expPS, expf, NewExp().(*pointwise)}, {"Sigmoid", sigmoidPS, sigmoid32, NewSigmoid().(*pointwise)}} {
		for _, off := range []float32{float32(math.NaN()), 100, -100} {
			const g = 5
			a := slices.Clone(block)
			a[g*8+3] = off
			// The routine stops at group g and writes nothing past it.
			d := make([]float32, blockLen)
			for i := range d {
				d[i] = math.Float32frombits(0x7fdead01)
			}
			if done := f.routine(&d[0], &a[0], blockLen); done != g*8 {
				t.Errorf("%s with %v in group %d: routine finished %d elements, want %d", f.name, off, g, done, g*8)
			}
			for i := g * 8; i < blockLen; i++ {
				if math.Float32bits(d[i]) != 0x7fdead01 {
					t.Fatalf("%s with %v in group %d: routine wrote element %d", f.name, off, g, i)
				}
			}
			// The block: group g from the scalar function, every other group
			// from the routine run on that group alone.
			want := make([]float32, blockLen)
			for i := 0; i < blockLen; i += 8 {
				if i == g*8 {
					for j := i; j < i+8; j++ {
						want[j] = f.scalar(a[j])
					}
				} else if f.routine(&want[i], &a[i], 8) != 8 {
					t.Fatalf("%s: group %d is off the fast path", f.name, i/8)
				}
			}
			got := make([]float32, blockLen)
			if pointwiseSIMD(f.op, got, a, nil) != blockLen {
				t.Fatalf("%s: pointwiseSIMD did not run its routine", f.name)
			}
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("%s with %v in group %d: element %d is %#08x, want %#08x", f.name, off, g, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestPointwiseSIMDTinyLanes pins the tiny-lane flush of expPS and
// sigmoidPS: ±0, ±2⁻³⁰ and the smallest and largest subnormals of either
// sign stay on the routine, alone in a group or at every lane of a group of
// ordinary values, and it writes expf's and sigmoid32's bits for them. Every
// other unary routine writes its Go loop's bits on the same groups.
func TestPointwiseSIMDTinyLanes(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2 routines: this CPU runs the Go loops only")
	}
	tiny := []float32{0, math.Float32frombits(1 << 31), 0x1p-30, -0x1p-30,
		math.Float32frombits(1), math.Float32frombits(1<<31 | 1),
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff)}
	groups := [][]float32{tiny}
	for _, x := range tiny {
		for lane := range 8 {
			g := []float32{1.5, -2, 0.25, 3, -0.75, 7, -9, 0.5}
			g[lane] = x
			groups = append(groups, g)
		}
	}
	for _, f := range []struct {
		name    string
		routine func(d, a *float32, n int) int
		scalar  func(float32) float32
	}{{"Exp", expPS, expf}, {"Sigmoid", sigmoidPS, sigmoid32}} {
		for _, a := range groups {
			d := make([]float32, 8)
			if done := f.routine(&d[0], &a[0], 8); done != 8 {
				t.Errorf("%s(%v): routine handed the group back", f.name, a)
				continue
			}
			for i, x := range a {
				if want := f.scalar(x); math.Float32bits(d[i]) != math.Float32bits(want) {
					t.Errorf("%s(%#08x): routine %#08x, scalar %#08x", f.name, math.Float32bits(x), math.Float32bits(d[i]), math.Float32bits(want))
				}
			}
		}
	}
	for _, c := range simdCases() {
		if c.binary() {
			continue
		}
		for _, a := range groups {
			got, want := make([]float32, 8), make([]float32, 8)
			if pointwiseSIMD(c.op, got, a, nil) != 8 {
				t.Fatalf("%s: pointwiseSIMD did not run its routine", c.name)
			}
			pointwiseGo(c.op, want, a, nil)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("%s(%#08x): routine %#08x, Go loop %#08x", c.name, math.Float32bits(a[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}
