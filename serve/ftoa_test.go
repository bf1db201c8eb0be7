package serve

import (
	"bytes"
	"math"
	"math/big"
	"strconv"
	"sync/atomic"
	"testing"

	"dnnfusion/internal/bitsweep"
)

// appendFloat32Strconv is how the encoder formatted a float32 before it had
// a formatter of its own, and how encoding/json formats one: the oracle of
// TestAppendFloat32MatchesStrconv.
func appendFloat32Strconv(dst []byte, f float32) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// TestAppendFloat32MatchesStrconv is the proof of appendFloat32: every
// finite float32 with the sign bit clear is written as the oracle writes it,
// every negative one as '-' and the text of its magnitude, and every text
// leaves room for its ',' in the encoder's maxFloatText bytes. That is all
// 2³² patterns, or under -short and the race detector every 251st plus a
// dense window at ±0, the subnormal/normal edge, the 'f'/'e' cutoffs 1e-6
// and 1e21, 2²⁴ (where the integer path ends) and MaxFloat32. The sweep
// runs over the magnitudes and writes each with both signs, so the
// negative text is checked against the positive one it has just written.
// On the sampled patterns the oracle is also held to the sign rule itself.
func TestAppendFloat32MatchesStrconv(t *testing.T) {
	var edges []uint64
	for _, f := range []float32{0, 0x1p-126, 1e-6, 1e21, 1 << 24, math.MaxFloat32} {
		u := uint64(math.Float32bits(f))
		edges = append(edges, u, u|1<<31)
	}
	var bad, badSign atomic.Int64
	bad.Store(-1)
	badSign.Store(-1)
	var magnitudes [][3]uint64
	for _, r := range bitsweep.Ranges(!testing.Short() && !raceEnabled, edges...) {
		if r[0] < 1<<31 {
			magnitudes = append(magnitudes, [3]uint64{r[0], min(r[1], 1<<31), r[2]})
		}
	}
	bitsweep.Parallel(magnitudes, func(_ int, from, to, step uint64) {
		pos, want, neg := make([]byte, 0, 64), make([]byte, 0, 64), make([]byte, 0, 64)
		for u := from; u < to; u += step {
			f := math.Float32frombits(uint32(u))
			if f-f != 0 { // NaN or ±Inf
				continue
			}
			pos = appendFloat32(append(pos[:0], '-'), f) // '-' and the text of f
			want = appendFloat32Strconv(want[:0], f)
			neg = appendFloat32(neg[:0], -f)
			if !bytes.Equal(pos[1:], want) || !bytes.Equal(neg, pos) || len(neg) > maxFloatText-1 {
				bad.CompareAndSwap(-1, int64(u))
				return
			}
		}
	})
	bitsweep.Parallel(bitsweep.Sampled(edges...), func(_ int, from, to, step uint64) {
		neg, pos := make([]byte, 0, 64), make([]byte, 0, 64)
		for u := max(from, 1<<31); u < to; u += step {
			f := math.Float32frombits(uint32(u))
			if f-f != 0 {
				continue
			}
			neg = appendFloat32Strconv(neg[:0], f)
			pos = appendFloat32Strconv(append(pos[:0], '-'), -f)
			if !bytes.Equal(neg, pos) {
				badSign.CompareAndSwap(-1, int64(u))
				return
			}
		}
	})
	if u := bad.Load(); u >= 0 {
		f := math.Float32frombits(uint32(u))
		pos := appendFloat32(nil, f)
		t.Errorf("appendFloat32(%#08x) = %q, want %q; appendFloat32(%#08x) = %q, want %q; each in at most %d bytes",
			u, pos, appendFloat32Strconv(nil, f), u|1<<31, appendFloat32(nil, -f), append([]byte{'-'}, pos...), maxFloatText-1)
	}
	if u := badSign.Load(); u >= 0 {
		f := math.Float32frombits(uint32(u))
		t.Errorf("strconv writes %#08x as %q and its magnitude as %q", u, appendFloat32Strconv(nil, f), appendFloat32Strconv(nil, -f))
	}
}

// TestFloat32PowersTable re-derives float32ToDecimal's constants with
// math/big: Giulietti's integer logarithms are exact over every q a float32
// has and every k they give, the table covers exactly the k of the least
// and the greatest q, and each entry is the top 63 bits of
// ⌊10^-k·2^(125-⌊log₂ 10^-k⌋)⌋+1, plus 1.
func TestFloat32PowersTable(t *testing.T) {
	qMax := int(math.Float32bits(math.MaxFloat32)>>23) + float32QMin - 1
	for q := float32QMin; q <= qMax; q++ {
		if k := flog10pow2(q); !isFloorLog(k, 10, ratPow(2, q)) {
			t.Errorf("flog10pow2(%d) = %d", q, k)
		}
		threeQuarters := new(big.Rat).Mul(big.NewRat(3, 4), ratPow(2, q))
		if k := flog10threeQuartersPow2(q); !isFloorLog(k, 10, threeQuarters) {
			t.Errorf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	// k falls as q does: its extremes are those of the least q (a subnormal,
	// whose spacing is regular), the least q with irregular spacing, and the
	// greatest q.
	kMin := min(flog10pow2(float32QMin), flog10threeQuartersPow2(float32QMin+1))
	kMax := flog10pow2(qMax)
	if kMin != float32KMin || kMax != float32KMin+len(float32Pow10)-1 {
		t.Fatalf("the table covers k in [%d, %d], float32 reaches [%d, %d]", float32KMin, float32KMin+len(float32Pow10)-1, kMin, kMax)
	}
	for i, have := range float32Pow10 {
		k := float32KMin + i
		r := flog2pow10(-k)
		if !isFloorLog(r, 2, ratPow(10, -k)) {
			t.Errorf("flog2pow10(%d) = %d", -k, r)
		}
		beta := new(big.Rat).Mul(ratPow(10, -k), ratPow(2, 125-r))
		g := new(big.Int).Quo(beta.Num(), beta.Denom())
		g.Add(g, big.NewInt(1)).Rsh(g, 63).Add(g, big.NewInt(1))
		if !g.IsUint64() || g.Uint64() != have {
			t.Errorf("float32Pow10 at k = %d is %#016x, the derivation says %#x", k, have, g)
		}
	}
}

// ratPow returns b^e.
func ratPow(b int64, e int) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
	if e < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

// isFloorLog reports whether k = ⌊log_b x⌋.
func isFloorLog(k int, b int64, x *big.Rat) bool {
	return ratPow(b, k).Cmp(x) <= 0 && x.Cmp(ratPow(b, k+1)) < 0
}
