package ops

import "math"

// The float32 transcendentals behind Exp, Sigmoid, Tanh and Erf. The oracle
// closure of each operator and its typed program loop call the same function,
// so compiled and interpreted results agree bit for bit by construction.
//
// Each is a range reduction plus a polynomial built from exponent bits, in
// the manner of Cephes and SLEEF (technique only, no code): no table gathers,
// no float64 libm call, and branches only for rare clamp and tail cases. Every
// product is rounded by an explicit float32 conversion, so no compiler can
// contract a multiply-add into an FMA and results are the same on every
// GOARCH. The polynomial coefficients are minimax fits made by
// transcendental_test.go (TestTranscendentalCoefficients re-derives them),
// and TestTranscendentalSweep bounds the error of each function against the
// float32 rounding of its float64 definition over all 2³² inputs.

const (
	log2e = 1.44269504088896340735992468100189214
	// ln 2 split Cody–Waite style: ln2Hi has 9 significant bits, so
	// n·ln2Hi is exact for every |n| ≤ 151 and so is x − n·ln2Hi.
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	// shifter rounds a float32 of magnitude below 2²² to an integer when
	// added: 1.5·2²³ + v lands in [2²³, 2²⁴), where the float32 spacing is
	// 1, and the integer sits in the low mantissa bits.
	shifter = 1.5 * (1 << 23)

	// e^r = 1 + r·(1 + r·(expC2 + r·(expC3 + … + r·expC6))) on |r| ≤ ln2/2.
	expC2 = 0.49999994
	expC3 = 0.166665211
	expC4 = 0.041668389
	expC5 = 0.0083687352
	expC6 = 0.00138145592

	// tanh a = a + a·z·(tanhC1 + z·(tanhC2 + … + z·tanhC5)), z = a², on
	// a < tanhSplit; beyond it tanh a = 1 − 2/(e^{2a} + 1).
	tanhSplit = 0.625
	tanhC1    = -0.333332807
	tanhC2    = 0.133314416
	tanhC3    = -0.0537397154
	tanhC4    = 0.0206390861
	tanhC5    = -0.0057049864

	// erf a = a + a·(erfS0 + z·(erfS1 + … + z·erfS6)), z = a², on
	// a < erfSplit; beyond it erf a = 1 − e^{M(a) − a²}, where
	// M(a) = ln erfc(a) + a² = erfM0 + t·(erfM1 + … + t·erfM8), t = a − 2.5.
	erfSplit = 1
	erfS0    = 0.128379167
	erfS1    = -0.37612626
	erfS2    = 0.112835854
	erfS3    = -0.0268538129
	erfS4    = 0.00518832775
	erfS5    = -0.000801019371
	erfS6    = 7.85386073e-05
	erfMid   = 2.5
	erfM0    = -1.55681527
	erfM1    = -0.352680683
	erfM2    = 0.0561063923
	erfM3    = -0.0108584873
	erfM4    = 0.00216508145
	erfM5    = -0.000420173135
	erfM6    = 7.74549335e-05
	erfM7    = -1.33017074e-05
	erfM8    = 1.59981585e-06
)

// expReduce returns p and k with e^x = p·2ⁿ, n = round(x·log2 e) held in k's
// low mantissa bits, p = e^r for r = x − n·ln 2. pow2(k) is 2ⁿ, a normal
// float32 for |x| ≤ 87.
func expReduce(x float32) (p, k float32) {
	k = float32(x*log2e) + shifter
	r := x - float32((k-shifter)*ln2Hi)
	r -= float32((k - shifter) * ln2Lo)
	// Horner all the way down: no product of r with r, which would underflow
	// for tiny r.
	q := float32(expC6*r) + expC5
	q = float32(q*r) + expC4
	q = float32(q*r) + expC3
	q = float32(q*r) + expC2
	q = float32(q*r) + 1
	return float32(q*r) + 1, k
}

// pow2 builds 2ⁿ from the k of expReduce: k's bits are those of the shifter
// plus n, and the shifter's bits vanish when shifted into the exponent field.
func pow2(k float32) float32 { return math.Float32frombits(math.Float32bits(k)<<23 + 127<<23) }

// expf is e^x in float32.
func expf(x float32) float32 {
	if !magnitudeIn(x, 0x30800001, 0x42ae0000) { // 2⁻³⁰ < |x| ≤ 87, NaN outside
		return expTail(x)
	}
	p, k := expReduce(x)
	return p * pow2(k)
}

// magnitudeIn reports whether the bits of |x| lie in [lo, hi] — for lo > 0 a
// float range of |x| that excludes NaN — in one unsigned compare. The
// functions' fast paths take 2⁻³⁰ < |x|, where 2ⁿ is a normal float32 and no
// product of r in expReduce underflows into slow subnormal arithmetic.
func magnitudeIn(x float32, lo, hi uint32) bool {
	return math.Float32bits(x)&^(1<<31)-lo <= hi-lo
}

// expTail is expf outside its fast path. |x| ≤ 2⁻³⁰ rounds e^x to 1. Below −104
// the result is under half the smallest subnormal; above 89 it overflows to
// +Inf either way. In between 2ⁿ may not be a normal float32, so the scale is
// taken in two normal halves and only the last multiply rounds, into the
// subnormals or to +Inf.
func expTail(x float32) float32 {
	switch {
	case math.Float32bits(x)&^(1<<31) <= 0x30800000:
		return 1
	case x < -104:
		return 0
	case x > 89:
		x = 89
	}
	p, k := expReduce(x)
	n := int32(math.Float32bits(k) - math.Float32bits(shifter))
	h := n >> 1
	return float32(p*math.Float32frombits(uint32(h+127)<<23)) * math.Float32frombits(uint32(n-h+127)<<23)
}

// sigmoid32 is 1/(1 + e^−x) in float32.
func sigmoid32(x float32) float32 {
	if !magnitudeIn(x, 0x30800001, 0x42a00000) { // 2⁻³⁰ < |x| ≤ 80, NaN outside
		switch {
		case x > 80:
			return 1 // 1 − e^−x rounds to 1
		case x < -80:
			return expf(x) // e^x/(1 + e^x) rounds to e^x, down into the subnormals
		}
		return 1 / (1 + expf(-x)) // ±tiny: 1/2; NaN
	}
	p, k := expReduce(-x)
	return 1 / (1 + float32(p*pow2(k)))
}

// tanh32 is tanh x in float32: odd by construction, evaluated at a = |x|.
func tanh32(x float32) float32 {
	u := math.Float32bits(x)
	a := math.Float32frombits(u &^ (1 << 31))
	if a > 10 {
		a = 10 // tanh 10 rounds to 1
	}
	ap := flushTiny(a)
	z := float32(ap * ap)
	z2 := float32(z * z)
	q := float32(float32(float32(tanhC5*z)+tanhC4)*z2) + float32(float32(tanhC3*z)+tanhC2)
	q = float32(q*z) + tanhC1
	small := float32(float32(ap*z)*q) + a
	p, k := expReduce(ap + ap)
	large := 1 - 2/(float32(p*pow2(k))+1)
	return math.Float32frombits(math.Float32bits(below(a, tanhSplit, small, large)) | u&(1<<31))
}

// erf32 is erf x in float32: odd by construction, evaluated at a = |x|.
func erf32(x float32) float32 {
	u := math.Float32bits(x)
	a := math.Float32frombits(u &^ (1 << 31))
	if a > 4 {
		a = 4 // erf 4 rounds to 1
	}
	ap := flushTiny(a)
	z := float32(ap * ap)
	z2 := float32(z * z)
	q := float32(float32(float32(erfS6*z)+erfS5)*z2) + float32(float32(erfS4*z)+erfS3)
	q = float32(q*z2) + float32(float32(erfS2*z)+erfS1)
	q = float32(q*z) + erfS0
	small := float32(a*q) + a
	t := a - erfMid // exact for a ≥ 1, where large is used
	t2 := float32(t * t)
	t4 := float32(t2 * t2)
	m := float32(float32(float32(erfM8*t)+erfM7)*t2) + float32(float32(erfM6*t)+erfM5)
	m = float32(m*t4) + float32(float32(float32(float32(erfM4*t)+erfM3)*t2)+float32(float32(erfM2*t)+erfM1))
	m = float32(m*t) + erfM0
	p, k := expReduce(m - z)
	large := 1 - float32(p*pow2(k))
	return math.Float32frombits(math.Float32bits(below(a, erfSplit, small, large)) | u&(1<<31))
}

// flushTiny returns a ≥ 0 with values up to 2⁻³⁰ flushed to +0, so squaring
// it cannot underflow into the slow subnormal arithmetic; where it is used
// the flushed terms are below half an ULP of the result.
func flushTiny(a float32) float32 {
	u := math.Float32bits(a)
	return math.Float32frombits(u & uint32(int32(0x30800000-u)>>31))
}

// below returns small when a < split and large otherwise (a NaN included),
// without a branch: for a ≥ 0 the float order is the order of the bits.
func below(a, split, small, large float32) float32 {
	mask := uint32(int32(math.Float32bits(a)-math.Float32bits(split)) >> 31)
	return math.Float32frombits(math.Float32bits(small)&mask | math.Float32bits(large)&^mask)
}
