package ops

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"dnnfusion/internal/bitsweep"
)

// transcendentals is the numeric contract of the float32 transcendentals, in
// the order transcendentalsAt evaluates them: the largest error of each, in
// ULPs against the float32 rounding of its float64 definition, over all 2³²
// inputs. TestTranscendentalSweep enforces it; the README's numeric-contract
// table records the same figures.
var transcendentals = []struct {
	name   string
	maxULP int64
}{{"exp", 1}, {"sigmoid", 2}, {"tanh", 1}, {"erf", 1}}

// transcendentalsAt evaluates the functions of the table at x, and the float32
// rounding of their float64 definitions.
func transcendentalsAt(x float32) (got, want [4]float32) {
	v := float64(x)
	return [4]float32{expf(x), sigmoid32(x), tanh32(x), erf32(x)},
		[4]float32{float32(math.Exp(v)), float32(1 / (1 + math.Exp(-v))), float32(math.Tanh(v)), float32(math.Erf(v))}
}

// transcendentalEdges are the bit patterns where the functions change case —
// each threshold of the code, ±0, the subnormal edge, ±Inf into the NaNs — on
// both signs: the dense windows of the -short sweep and the edge table of the
// typed loops.
var transcendentalEdges = func() []uint64 {
	var edges []uint64
	for _, u := range []uint64{
		0, 0x00800000, // ±0, smallest normal
		0x30800000, 0x32800000, 0x33800000, // 2⁻³⁰ (flushTiny), 2⁻²⁶, 2⁻²⁴
		0x3f200000, 0x3f800000, 0x40200000, 0x40800000, 0x41200000, // 0.625, 1, 2.5, 4, 10
		0x42a00000, 0x42ae0000, 0x42b17218, 0x42b20000, // 80, 87, ln(MaxFloat32), 89
		0x42aeac50, 0x42cff1b5, 0x42d00000, // −87.34 (subnormal results), −103.97 (below half the smallest), −104
		0x7f800000, 0x7fc00000, // Inf, quiet NaN
	} {
		edges = append(edges, u, u|1<<31)
	}
	return append(edges, 1<<32)
}()

// ulps is the distance between a and b in float32 steps (+0 and −0 are one
// point).
func ulps(a, b float32) int64 {
	ua, ub := int64(math.Float32bits(a)), int64(math.Float32bits(b))
	if ua >= 1<<31 {
		ua = 1<<31 - ua
	}
	if ub >= 1<<31 {
		ub = 1<<31 - ub
	}
	return max(ua-ub, ub-ua)
}

// sweepResult is one goroutine's findings per function of the table: the
// worst error and where, and an input where exactly one side is NaN.
type sweepResult struct {
	ulps        [4]int64
	at, nanAt   [4]uint32
	nanMismatch [4]bool
	_           [64]byte // no cache line shared with the next goroutine's
}

func (r *sweepResult) note(i int, u uint32, got, want float32) {
	if got != got || want != want {
		if got == got || want == want {
			r.nanAt[i], r.nanMismatch[i] = u, true
		}
		return
	}
	if d := ulps(got, want); d > r.ulps[i] {
		r.ulps[i], r.at[i] = d, u
	}
}

// noteAll notes function i at each input of x. Equal bits are passed over,
// a block that matches throughout in one compare: they are no error, and
// NaN on both sides is no mismatch.
func (r *sweepResult) noteAll(i int, x, got, want []float32) {
	j := firstBitDiff(got, want)
	if j < 0 {
		return
	}
	for ; j < len(got); j++ {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			r.note(i, math.Float32bits(x[j]), got[j], want[j])
		}
	}
}

// TestTranscendentalSweep measures each float32 transcendental against its
// float64 definition on every float32 — all 2³², or under -short and the race
// detector every 251st plus a dense window around each edge — and holds it to
// the contract: NaN exactly where the definition is NaN, elsewhere at most the
// table's ULPs, and the table at most 4. Each goroutine takes its patterns
// a block at a time and runs one function over the whole block before the
// next, calling it directly (through func values it runs several times
// longer), so the independent calls overlap in the pipeline. One math.Exp
// serves as exp's definition at x and sigmoid's at −x. Tanh and erf are
// measured on x ≥ +0: both sides of the comparison are odd
// (TestTranscendentalOdd), so their error at −x is their error at x.
func TestTranscendentalSweep(t *testing.T) {
	const n = 1 << 10
	type lane struct {
		x, neg, got, want [n]float32
		e                 [n]float64
	}
	res := make([]sweepResult, runtime.GOMAXPROCS(0))
	lanes := make([]lane, len(res))
	bitsweep.Parallel(bitsweep.Ranges(fullSweep(), transcendentalEdges...), func(w int, from, to, step uint64) {
		r, l := &res[w], &lanes[w]
		for u := from; u < to; {
			x, m := l.x[:], 0
			for ; m < n && u < to; m, u = m+1, u+step {
				x[m] = math.Float32frombits(uint32(u))
			}
			x, neg, e, got, want := x[:m], l.neg[:m], l.e[:m], l.got[:m], l.want[:m]
			for i, xi := range x {
				e[i] = math.Exp(float64(xi))
			}
			for i, xi := range x {
				got[i], want[i] = expf(xi), float32(e[i])
			}
			r.noteAll(0, x, got, want)
			for i, xi := range x {
				neg[i], got[i], want[i] = -xi, sigmoid32(-xi), float32(1/(1+e[i]))
			}
			r.noteAll(1, neg, got, want)
			p := 0 // x ≥ +0 to the front
			for _, xi := range x {
				if math.Float32bits(xi) < 1<<31 {
					x[p], p = xi, p+1
				}
			}
			x, got, want = x[:p], got[:p], want[:p]
			for i, xi := range x {
				got[i], want[i] = tanh32(xi), float32(math.Tanh(float64(xi)))
			}
			r.noteAll(2, x, got, want)
			for i, xi := range x {
				got[i], want[i] = erf32(xi), float32(math.Erf(float64(xi)))
			}
			r.noteAll(3, x, got, want)
		}
	})
	for i, fn := range transcendentals {
		var all sweepResult
		for _, r := range res {
			if r.ulps[i] > all.ulps[i] {
				all.ulps[i], all.at[i] = r.ulps[i], r.at[i]
			}
			if r.nanMismatch[i] {
				all.nanAt[i], all.nanMismatch[i] = r.nanAt[i], true
			}
		}
		if fn.maxULP > 4 {
			t.Errorf("%s: contract says %d ULP, the bound is 4", fn.name, fn.maxULP)
		}
		if all.nanMismatch[i] {
			got, want := transcendentalsAt(math.Float32frombits(all.nanAt[i]))
			t.Errorf("%s(%#08x) = %v, definition says %v", fn.name, all.nanAt[i], got[i], want[i])
		}
		x := math.Float32frombits(all.at[i])
		got, want := transcendentalsAt(x)
		if all.ulps[i] > fn.maxULP {
			t.Errorf("%s(%v) = %v, definition says %v: %d ULP, contract %d", fn.name, x, got[i], want[i], all.ulps[i], fn.maxULP)
		}
		t.Logf("%s: max %d ULP, at %v (%#08x)", fn.name, all.ulps[i], x, all.at[i])
	}
}

// TestTranscendentalOdd: tanh32 and erf32 are odd bit for bit — each computes
// a magnitude from |x| and gives it x's sign — and so are math.Tanh and
// math.Erf, which is what lets the sweep measure both on x ≥ +0 alone.
// Checked on every 251st pattern and the edge windows.
func TestTranscendentalOdd(t *testing.T) {
	var bad atomic.Int64
	bad.Store(-1)
	bitsweep.Parallel(bitsweep.Sampled(transcendentalEdges...), func(_ int, from, to, step uint64) {
		for u := from; u < to; u += step {
			x := math.Float32frombits(uint32(u))
			v := float64(x)
			if x == x && (math.Float32bits(tanh32(-x)) != math.Float32bits(-tanh32(x)) ||
				math.Float32bits(erf32(-x)) != math.Float32bits(-erf32(x)) ||
				math.Float64bits(math.Tanh(-v)) != math.Float64bits(-math.Tanh(v)) ||
				math.Float64bits(math.Erf(-v)) != math.Float64bits(-math.Erf(v))) {
				bad.CompareAndSwap(-1, int64(u))
				return
			}
		}
	})
	if u := bad.Load(); u >= 0 {
		t.Errorf("tanh or erf is not odd at %v (%#08x)", math.Float32frombits(uint32(u)), u)
	}
}

// TestTranscendentalSpecialValues pins the values the contract names exactly.
func TestTranscendentalSpecialValues(t *testing.T) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	for _, c := range []struct {
		name    string
		f       func(float32) float32
		x, want float32
	}{
		{"exp", expf, -inf, 0}, {"exp", expf, inf, inf}, {"exp", expf, 88.73, inf}, {"exp", expf, -104, 0},
		{"exp", expf, 0, 1}, {"exp", expf, negZero, 1},
		{"sigmoid", sigmoid32, inf, 1}, {"sigmoid", sigmoid32, -inf, 0}, {"sigmoid", sigmoid32, 0, 0.5},
		{"tanh", tanh32, inf, 1}, {"tanh", tanh32, -inf, -1}, {"tanh", tanh32, 0, 0}, {"tanh", tanh32, negZero, negZero},
		{"erf", erf32, inf, 1}, {"erf", erf32, -inf, -1}, {"erf", erf32, 0, 0}, {"erf", erf32, negZero, negZero},
	} {
		if got := c.f(c.x); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("%s(%v) = %v (%#08x), want %v (%#08x)", c.name, c.x, got, math.Float32bits(got), c.want, math.Float32bits(c.want))
		}
	}
	for _, u := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xffbfffff} {
		got, _ := transcendentalsAt(math.Float32frombits(u))
		for i, v := range got {
			if v == v {
				t.Errorf("%s(NaN %#08x) = %v, want NaN", transcendentals[i].name, u, v)
			}
		}
	}
}

// TestTranscendentalLoops: the typed program loop of each transcendental
// operator applies the same function as the operator's closure, bit for bit,
// on every edge pattern and its neighbours.
func TestTranscendentalLoops(t *testing.T) {
	var patterns []uint32
	for _, e := range transcendentalEdges {
		for d := uint64(0); d < 3; d++ {
			if p := e + d - 1; p < 1<<32 {
				patterns = append(patterns, uint32(p))
			}
		}
	}
	for _, mk := range []func() Operator{NewExp, NewSigmoid, NewTanh, NewErf} {
		op := mk().(*pointwise)
		if op.kind == kindGeneric {
			t.Errorf("%s runs the generic loop, want its typed one", op.name)
		}
		assertLoop(t, op, patterns)
	}
}

// TestTranscendentalCoefficients re-derives every polynomial coefficient of
// transcendental.go: a weighted minimax fit (Lawson's iteration over weighted
// least squares) in float64 of what each polynomial stands for, rounded to
// float32. A coefficient may sit one float32 step from its refit, since the
// fit's last float64 bits can differ across platforms.
func TestTranscendentalCoefficients(t *testing.T) {
	for _, c := range []struct {
		name   string
		have   []float32
		lo, hi float64
		f, w   func(float64) float64
	}{{
		// e^r = 1 + r + r²·P(r); error in P costs r²·δ of e^r.
		"exp", []float32{expC2, expC3, expC4, expC5, expC6}, -0.3467, 0.3467,
		func(r float64) float64 {
			if math.Abs(r) < 1e-4 {
				return 0.5 + r/6 + r*r/24 + r*r*r/120
			}
			return (math.Expm1(r) - r) / (r * r)
		},
		func(r float64) float64 { return r * r / math.Exp(r) },
	}, {
		// tanh a = a + a³·P(a²); error in P costs a³·δ of tanh a.
		"tanh", []float32{tanhC1, tanhC2, tanhC3, tanhC4, tanhC5}, 0, tanhSplit * tanhSplit,
		func(z float64) float64 {
			if z < 1e-6 {
				return -1.0/3 + 2*z/15 - 17*z*z/315
			}
			a := math.Sqrt(z)
			return (math.Tanh(a) - a) / (a * z)
		},
		func(z float64) float64 {
			if z == 0 {
				return 0
			}
			a := math.Sqrt(z)
			return a * z / math.Tanh(a)
		},
	}, {
		// erf a = a·(1 + P(a²)); error in P costs a·δ of erf a.
		"erf small", []float32{erfS0, erfS1, erfS2, erfS3, erfS4, erfS5, erfS6}, 0, erfSplit * erfSplit,
		func(z float64) float64 {
			if z < 1e-12 {
				return 2/math.SqrtPi*(1-z/3) - 1
			}
			a := math.Sqrt(z)
			return math.Erf(a)/a - 1
		},
		func(z float64) float64 {
			if z < 1e-12 {
				return math.SqrtPi / 2
			}
			a := math.Sqrt(z)
			return a / math.Erf(a)
		},
	}, {
		// erfc a = e^{M(a) − a²}; error in M is relative error in erfc.
		"erf large", []float32{erfM0, erfM1, erfM2, erfM3, erfM4, erfM5, erfM6, erfM7, erfM8}, erfSplit - erfMid, 4 - erfMid,
		func(t float64) float64 {
			a := t + erfMid
			return math.Log(math.Erfc(a)) + a*a
		},
		func(float64) float64 { return 1 },
	}} {
		fit := fitPoly(c.f, c.w, c.lo, c.hi, len(c.have)-1)
		for i, h := range c.have {
			if d := ulps(h, float32(fit[i])); d > 1 {
				t.Errorf("%s coefficient %d is %v, the fit says %v (%d float32 steps)", c.name, i, h, float32(fit[i]), d)
			}
		}
	}
}

// fitPoly returns the coefficients, lowest degree first, of the polynomial of
// degree deg minimizing max w(x)·|f(x) − p(x)| over [lo, hi], sampled at
// Chebyshev points: Lawson's iteration, a weighted least-squares fit whose
// point weights grow with the error they leave until the largest error is as
// small as it gets, which converges to the minimax fit.
func fitPoly(f, w func(float64) float64, lo, hi float64, deg int) []float64 {
	const points, rounds = 3000, 200
	xs, fx, wx := make([]float64, points), make([]float64, points), make([]float64, points)
	lawson := make([]float64, points)
	for i := range xs {
		xs[i] = (lo+hi)/2 + (hi-lo)/2*math.Cos(math.Pi*(float64(i)+0.5)/points)
		fx[i], wx[i], lawson[i] = f(xs[i]), w(xs[i]), 1
	}
	var c []float64
	for round := 0; round < rounds; round++ {
		a := make([][]float64, points)
		b := make([]float64, points)
		for i, x := range xs {
			s := math.Sqrt(lawson[i]) * wx[i]
			a[i] = make([]float64, deg+1)
			for k, p := 0, s; k <= deg; k, p = k+1, p*x {
				a[i][k] = p
			}
			b[i] = s * fx[i]
		}
		c = leastSquares(a, b)
		sum := 0.0
		for i, x := range xs {
			p := 0.0
			for k := deg; k >= 0; k-- {
				p = p*x + c[k]
			}
			lawson[i] *= math.Abs(wx[i] * (fx[i] - p))
			sum += lawson[i]
		}
		for i := range lawson {
			lawson[i] = max(lawson[i]/sum*points, 1e-300)
		}
	}
	return c
}

// leastSquares solves min |a·x − b| by Householder QR on a augmented with b
// (each row of a gains b's element as its last column).
func leastSquares(a [][]float64, b []float64) []float64 {
	m, n := len(a), len(a[0])
	for i := range a {
		a[i] = append(a[i], b[i])
	}
	v := make([]float64, m)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := j; i < m; i++ {
			norm += a[i][j] * a[i][j]
		}
		norm = math.Copysign(math.Sqrt(norm), -a[j][j])
		vv := 0.0
		for i := j; i < m; i++ {
			v[i] = a[i][j]
			vv += v[i] * v[i]
		}
		v[j] -= norm
		vv += v[j]*v[j] - a[j][j]*a[j][j]
		if vv == 0 {
			continue
		}
		for k := j; k <= n; k++ {
			d := 0.0
			for i := j; i < m; i++ {
				d += v[i] * a[i][k]
			}
			d *= 2 / vv
			for i := j; i < m; i++ {
				a[i][k] -= d * v[i]
			}
		}
	}
	x := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		s := a[j][n]
		for k := j + 1; k < n; k++ {
			s -= a[j][k] * x[k]
		}
		x[j] = s / a[j][j]
	}
	return x
}
