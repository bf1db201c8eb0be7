//go:build amd64 && !purego

package ops

import "math"

// pointwiseSIMD runs op's typed loop over the whole 8-element groups of d
// through the AVX2 routines of pointwise_amd64.s, where the CPU has them,
// and returns how many leading elements of d it wrote: len(d) rounded down
// to a multiple of 8 for every typed kind but Identity (Add, Sub, Mul, Div,
// Min, Max, Neg, Abs, Square, Reciprocal, Sqrt, Relu, Clip, LeakyRelu,
// AddConst, MulConst, Exp, Sigmoid, Tanh and Erf), else 0. a, and b for the
// binary kinds, are read at the same offsets; each is touched at the last
// element the routine reads before the call, so a short operand is a Go
// bounds panic, not a stray read.
//
// Exp and Sigmoid stop at a group with a lane off their fast path, a NaN or
// past the overflow bound: Go computes that group with expf or sigmoid32 and
// the routine resumes after it. A lane with |x| ≤ 2⁻³⁰ stays on the routine,
// flushed to +0, which gives expf's and sigmoid32's values there exactly.
func pointwiseSIMD(op *pointwise, d, a, b []float32) int {
	n := len(d) &^ 7
	if !avx2FMA || n == 0 {
		return 0
	}
	switch op.kind {
	case kindAdd:
		_, _ = a[n-1], b[n-1]
		addPS(&d[0], &a[0], &b[0], n)
	case kindSub:
		_, _ = a[n-1], b[n-1]
		subPS(&d[0], &a[0], &b[0], n)
	case kindMul:
		_, _ = a[n-1], b[n-1]
		mulPS(&d[0], &a[0], &b[0], n)
	case kindDiv:
		_, _ = a[n-1], b[n-1]
		divPS(&d[0], &a[0], &b[0], n)
	case kindMin:
		_, _ = a[n-1], b[n-1]
		minPS(&d[0], &a[0], &b[0], n)
	case kindMax:
		_, _ = a[n-1], b[n-1]
		maxPS(&d[0], &a[0], &b[0], n)
	case kindAddConst:
		_ = a[n-1]
		addConstPS(&d[0], &a[0], op.c, n)
	case kindMulConst:
		_ = a[n-1]
		mulConstPS(&d[0], &a[0], op.c, n)
	case kindLeakyRelu:
		_ = a[n-1]
		leakyReluPS(&d[0], &a[0], op.c, n)
	case kindNeg:
		_ = a[n-1]
		negPS(&d[0], &a[0], n)
	case kindAbs:
		_ = a[n-1]
		absPS(&d[0], &a[0], n)
	case kindSquare:
		_ = a[n-1]
		squarePS(&d[0], &a[0], n)
	case kindReciprocal:
		_ = a[n-1]
		reciprocalPS(&d[0], &a[0], n)
	case kindSqrt:
		_ = a[n-1]
		sqrtPS(&d[0], &a[0], n)
	case kindRelu:
		_ = a[n-1]
		reluPS(&d[0], &a[0], n)
	case kindClip:
		_ = a[n-1]
		clipPS(&d[0], &a[0], op.lo, op.hi, n)
	case kindTanh:
		_ = a[n-1]
		tanhPS(&d[0], &a[0], n)
	case kindErf:
		_ = a[n-1]
		erfPS(&d[0], &a[0], n)
	case kindExp:
		_ = a[n-1]
		for j := 0; j < n; j += 8 {
			if j += expPS(&d[j], &a[j], n-j); j < n {
				for i := j; i < j+8; i++ {
					d[i] = expf(a[i])
				}
			}
		}
	case kindSigmoid:
		_ = a[n-1]
		for j := 0; j < n; j += 8 {
			if j += sigmoidPS(&d[j], &a[j], n-j); j < n {
				for i := j; i < j+8; i++ {
					d[i] = sigmoid32(a[i])
				}
			}
		}
	default:
		return 0
	}
	return n
}

// The routines of pointwise_amd64.s: n elements, n a positive multiple of
// 8, d[j] = f(a[j], b[j]). expPS and sigmoidPS return how many they wrote
// before the first group with a lane off the fast path.

//go:noescape
func addPS(d, a, b *float32, n int)

//go:noescape
func subPS(d, a, b *float32, n int)

//go:noescape
func mulPS(d, a, b *float32, n int)

//go:noescape
func divPS(d, a, b *float32, n int)

//go:noescape
func minPS(d, a, b *float32, n int)

//go:noescape
func maxPS(d, a, b *float32, n int)

//go:noescape
func addConstPS(d, a *float32, c float32, n int)

//go:noescape
func mulConstPS(d, a *float32, c float32, n int)

// leakyReluPS's c is the slope alpha.
//
//go:noescape
func leakyReluPS(d, a *float32, c float32, n int)

//go:noescape
func negPS(d, a *float32, n int)

//go:noescape
func absPS(d, a *float32, n int)

//go:noescape
func squarePS(d, a *float32, n int)

//go:noescape
func reciprocalPS(d, a *float32, n int)

//go:noescape
func sqrtPS(d, a *float32, n int)

//go:noescape
func reluPS(d, a *float32, n int)

//go:noescape
func clipPS(d, a *float32, lo, hi float32, n int)

//go:noescape
func expPS(d, a *float32, n int) (done int)

//go:noescape
func sigmoidPS(d, a *float32, n int) (done int)

//go:noescape
func tanhPS(d, a *float32, n int)

//go:noescape
func erfPS(d, a *float32, n int)

// simdConsts are the constants of pointwise_amd64.s, each splatted over 8
// lanes so an instruction can take it as a memory operand. The assembly
// names the rows by byte offset (its C_ defines), so the order is fixed.
var simdConsts = func() (rows [len(simdConstBits)][8]uint32) {
	for i, bits := range simdConstBits {
		for l := range rows[i] {
			rows[i][l] = bits
		}
	}
	return rows
}()

var simdConstBits = [...]uint32{
	0x7fffffff,                  // C_ABS
	0x80000000,                  // C_SIGN
	math.Float32bits(1),         // C_ONE, also pow2's 127<<23
	math.Float32bits(2),         // C_TWO
	0x30800000,                  // C_TINY: 2⁻³⁰, flushTiny's and FAST_PATH's bound
	0x42ae0000,                  // C_EXP_HI: 87
	0x42a00000,                  // C_SIGMOID_HI: 80
	math.Float32bits(log2e),     // C_LOG2E
	math.Float32bits(shifter),   // C_SHIFTER
	math.Float32bits(ln2Hi),     // C_LN2HI
	math.Float32bits(ln2Lo),     // C_LN2LO
	math.Float32bits(expC2),     // C_EXPC2
	math.Float32bits(expC3),     // C_EXPC3
	math.Float32bits(expC4),     // C_EXPC4
	math.Float32bits(expC5),     // C_EXPC5
	math.Float32bits(expC6),     // C_EXPC6
	math.Float32bits(10),        // C_TANH_MAX
	math.Float32bits(tanhSplit), // C_TANH_SPLIT
	math.Float32bits(tanhC1),    // C_TANHC1
	math.Float32bits(tanhC2),    // C_TANHC2
	math.Float32bits(tanhC3),    // C_TANHC3
	math.Float32bits(tanhC4),    // C_TANHC4
	math.Float32bits(tanhC5),    // C_TANHC5
	math.Float32bits(4),         // C_ERF_MAX
	math.Float32bits(erfSplit),  // C_ERF_SPLIT
	math.Float32bits(erfMid),    // C_ERF_MID
	math.Float32bits(erfS0),     // C_ERFS0
	math.Float32bits(erfS1),     // C_ERFS1
	math.Float32bits(erfS2),     // C_ERFS2
	math.Float32bits(erfS3),     // C_ERFS3
	math.Float32bits(erfS4),     // C_ERFS4
	math.Float32bits(erfS5),     // C_ERFS5
	math.Float32bits(erfS6),     // C_ERFS6
	math.Float32bits(erfM0),     // C_ERFM0
	math.Float32bits(erfM1),     // C_ERFM1
	math.Float32bits(erfM2),     // C_ERFM2
	math.Float32bits(erfM3),     // C_ERFM3
	math.Float32bits(erfM4),     // C_ERFM4
	math.Float32bits(erfM5),     // C_ERFM5
	math.Float32bits(erfM6),     // C_ERFM6
	math.Float32bits(erfM7),     // C_ERFM7
	math.Float32bits(erfM8),     // C_ERFM8
	0x7fffffff,                  // C_RELU_BIAS: u + 0x7fffffff is u−1 with its sign bit flipped
	0xff800000,                  // C_RELU_LIMIT: 0x7f800000 with its sign bit flipped
}
