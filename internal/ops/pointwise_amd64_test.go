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
// scalar function — expf, sigmoid32, tanh32, erf32, relu, ReLU6 with hi 6, 1
// and +Inf, and generic Clip — bit for bit on every float32: all 2³²
// patterns, or under -short and the race detector a strided sweep plus a
// dense window around every edge of the functions' case analysis.
//
//   - Relu and generic Clip: the routine against the Go loop on every input.
//     ReLU6 is not swept again here: TestBranchFreeClip runs the same typed
//     loop, whose groups are this routine, over every float32 for hi 6, 1
//     and +Inf against the closure.
//   - Exp and Sigmoid: the routine over every group of 8 consecutive
//     patterns. A group it computes must match the Go loop; a group it hands
//     back (Go then computes it with the scalar function) must hold a lane
//     off the fast path. Each pattern within 2¹⁶ of a fast-path bound, put in
//     a group of 7 fast-path lanes, must be handed back exactly when it is
//     off the path itself.
//   - Tanh and Erf: against the Go loop on x ≥ +0, and on x ≤ −0 against the
//     routine at |x| with the sign set. Both sides are odd by construction:
//     f(x) is f(|x|) with x's sign OR-ed in (TestTranscendentalOdd samples
//     the scalar side), as in TestTranscendentalSweep. Past its clamp
//     (10, 4) up to +Inf the scalar function computes f(clamp), so a run of
//     patterns there is compared with that one value.
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
		// For Exp and Sigmoid, the raw routine and the top of its fast path,
		// magnitudeIn(x, 0x30800001, hi).
		routine func(d, a *float32, n int) int
		hi      uint32
		odd     bool // Tanh, Erf
		swept   bool // false for ReLU6, which TestBranchFreeClip sweeps
		// clamp and past for Tanh and Erf: the bits of the clamp and the
		// scalar function's value there.
		clamp uint32
		past  float32
		bad   atomic.Int64
	}
	var cases []*sweepCase
	for _, c := range simdCases() {
		if c.binary() || c.op.kind == kindAddConst || c.op.kind == kindMulConst {
			continue
		}
		sc := &sweepCase{simdCase: c, swept: c.op.kind != kindClip || math.Float32bits(c.op.lo) != 0}
		switch c.op.kind {
		case kindExp:
			sc.routine, sc.hi = expPS, 0x42ae0000
		case kindSigmoid:
			sc.routine, sc.hi = sigmoidPS, 0x42a00000
		case kindTanh, kindErf:
			sc.odd, sc.clamp = true, math.Float32bits(10)
			if c.op.kind == kindErf {
				sc.clamp = math.Float32bits(4)
			}
			past := []float32{math.Float32frombits(sc.clamp)}
			pointwiseGo(c.op, past, past, nil)
			sc.past = past[0]
		}
		sc.bad.Store(-1)
		cases = append(cases, sc)
	}
	const n = 1 << 12
	type lane struct{ in, neg, simd, scalar []float32 }
	lanes := make([]lane, runtime.GOMAXPROCS(0))
	for w := range lanes {
		lanes[w] = lane{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
	}
	// compare notes the first input whose routine and Go-loop bits differ.
	compare := func(c *sweepCase, in, simd, scalar []float32) {
		if j := firstBitDiff(simd, scalar); j >= 0 {
			c.bad.CompareAndSwap(-1, int64(math.Float32bits(in[j])))
		}
	}
	sweep := func(ranges [][3]uint64, odd bool) {
		bitsweep.Parallel(ranges, func(w int, from, to, step uint64) {
			l := &lanes[w]
			for u := from; u < to; {
				in, first, m := l.in, u, 0
				for ; m < n && u < to; m, u = m+1, u+step {
					in[m] = math.Float32frombits(uint32(u))
				}
				last := u - step
				for ; m%8 != 0; m++ {
					in[m] = in[0]
				}
				in, simd, scalar := in[:m], l.simd[:m], l.scalar[:m]
				for _, c := range cases {
					if !c.swept || c.odd != odd {
						continue
					}
					if c.routine != nil {
						for j := 0; j < m; j += 8 {
							if done := c.routine(&simd[j], &in[j], m-j); done > 0 {
								pointwiseGo(c.op, scalar[j:j+done], in[j:j+done], nil)
								compare(c, in[j:j+done], simd[j:j+done], scalar[j:j+done])
								j += done
							}
							if j < m && !slices.ContainsFunc(in[j:j+8], func(x float32) bool { return !magnitudeIn(x, 0x30800001, c.hi) }) {
								c.bad.CompareAndSwap(-1, int64(math.Float32bits(in[j]))) // a fast-path group handed back
							}
						}
						continue
					}
					if pointwiseSIMD(c.op, simd, in, nil) != m {
						c.bad.CompareAndSwap(-1, 1<<32)
						continue
					}
					if c.odd && first > uint64(c.clamp) && last <= 0x7f800000 {
						for i := range scalar {
							scalar[i] = c.past
						}
					} else {
						pointwiseGo(c.op, scalar, in, nil)
					}
					compare(c, in, simd, scalar)
					if c.odd {
						// At −x: the routine in place, against its own f(x) with
						// the sign set.
						neg, pos, want, got := l.neg[:m], bitsOf(in), bitsOf(scalar), bitsOf(simd)
						for i, negBits := 0, bitsOf(neg); i < m; i++ {
							negBits[i], want[i] = pos[i]|1<<31, got[i]|1<<31
						}
						pointwiseSIMD(c.op, neg, neg, nil)
						if j := firstBitDiff(neg, scalar); j >= 0 {
							c.bad.CompareAndSwap(-1, int64(pos[j]|1<<31))
						}
					}
				}
			}
		})
	}
	ranges := bitsweep.Ranges(fullSweep(), append(slices.Clone(transcendentalEdges), 0x40c00000, 0xc0c00000)...) // and ±6
	sweep(ranges, false)
	var positive [][3]uint64
	for _, r := range ranges {
		if r[0] < 1<<31 {
			positive = append(positive, [3]uint64{r[0], min(r[1], 1<<31), r[2]})
		}
	}
	sweep(positive, true)
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
					if handed := c.routine(&group[8], &group[0], 8) == 0; handed == magnitudeIn(x, 0x30800001, c.hi) {
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
		for _, off := range []float32{float32(math.NaN()), 100, -100, 0} {
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
