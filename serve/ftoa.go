package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The response's float formatter. encoding/json writes a float32 as
// strconv's shortest decimal that reads back as the same float32, in 'f'
// layout inside [1e-6, 1e21) and otherwise as d.ddde±X with the exponent's
// leading zero dropped (e-09 → e-9). appendFloat32 writes those bytes with a
// Schubfach core (R. Giulietti, "The Schubfach way to render doubles", 2020)
// specialised to float32, and TestAppendFloat32MatchesStrconv holds it to the
// strconv expression json uses on every float32.

// appendFloat32 appends the text of a finite f.
func appendFloat32(dst []byte, f float32) []byte {
	u := math.Float32bits(f)
	if u >= 1<<31 {
		dst = append(dst, '-')
		u &^= 1 << 31
	}
	if u == 0 { // ±0; +0 is what a ReLU makes of half its inputs
		return append(dst, '0')
	}
	d, e10 := float32ToDecimal(u)

	// The digits of d, its trailing zeros cut: n of them, the first eight
	// in lo (ASCII, the first digit in the lowest byte) and a ninth in
	// ninth. f is 0.digits × 10^dp.
	var lo uint64
	var ninth byte
	var n, dp int
	if d >= 1e8 {
		head := d / 1e8
		x := digits8(d - head*1e8)
		lo = x<<8 | uint64(head) | ascii0
		ninth = byte(x>>56) | '0'
		n, dp = 9-bits.LeadingZeros64(x)>>3, 9+e10
	} else {
		x := digits8(d)
		lead := bits.TrailingZeros64(x) >> 3 // d has 8 - lead digits
		x >>= lead << 3
		lo = x | ascii0
		n, dp = 8-bits.LeadingZeros64(x)>>3, 8-lead+e10
	}

	// The text is laid out in b with 8-byte stores and then appended: dst is
	// one chunk's part of a buffer whose other parts other cores are
	// writing, so nothing is stored past the text's own end.
	var b [32]byte
	var size int
	switch {
	case dp < -5 || dp > 21: // d.ddde±X
		binary.LittleEndian.PutUint64(b[1:], lo)
		b[9] = ninth
		b[0], b[1] = b[1], '.'
		size = n + 1
		if n == 1 {
			size = 1
		}
		x, sign := dp-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		b[size], b[size+1] = 'e', sign
		if x < 10 {
			b[size+2] = byte('0' + x)
			size += 3
		} else {
			b[size+2], b[size+3] = byte('0'+x/10), byte('0'+x%10)
			size += 4
		}
	case dp <= 0: // 0.000ddd
		binary.LittleEndian.PutUint64(b[0:], 0x303030303030_2e30) // "0.000000"
		size = 2 - dp
		binary.LittleEndian.PutUint64(b[size:], lo)
		b[size+8] = ninth
		size += n
	case dp < n: // ddd.ddd
		binary.LittleEndian.PutUint64(b[0:], lo)
		b[8] = ninth
		binary.LittleEndian.PutUint64(b[dp+1:], binary.LittleEndian.Uint64(b[dp:]))
		b[dp] = '.'
		size = n + 1
	default: // ddd000
		binary.LittleEndian.PutUint64(b[0:], lo)
		b[8] = ninth
		for i := n; i < dp; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], ascii0)
		}
		size = dp
	}
	return append(dst, b[:size]...)
}

// ascii0 is '0' in every byte: a digit value ORed with it is its ASCII.
const ascii0 = 0x3030303030303030

// digits8 returns the eight decimal digits of x < 10⁸, leading zeros
// included, one per byte with the most significant in the lowest: x is cut
// into 4-digit halves, each half into 2-digit quarters, each quarter into
// digits, every lane of a cut divided at once by a multiply and a shift.
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	hi := v * 5243 >> 19 & 0x0000007f_0000007f // ÷100 per 32-bit lane (exact below 10⁴)
	v = hi | (v-hi*100)<<16
	hi = v * 103 >> 10 & 0x000f_000f_000f_000f // ÷10 per 16-bit lane (exact below 10²)
	return hi | (v-hi*10)<<8
}

// A float32 v > 0 is c·2^q with a significand c < 2²⁴ and q ≥ float32QMin.
const (
	float32QMin = -149    // the subnormals' q
	float32CMin = 1 << 23 // the normals' least c
)

// float32ToDecimal returns the decimal d·10^e10 that strconv formats for the
// positive finite float32 with bits u: of the decimals that round to it, one
// with the fewest digits, and of those the nearest (ties to even d). d may
// end in zeros.
//
// The schema is Giulietti's (figures 7 and 9 of the paper): v and the
// bounds of the interval of reals that round to it, scaled by 4·10^-k and
// rounded to odd, are vb, vbl and vbr, with k such that the interval holds
// s·10^k or (s+1)·10^k, s = ⌊vb/4⌋. If exactly one of the one digit shorter
// s′·10^(k+1) and (s′+1)·10^(k+1), s′ = ⌊s/10⌋, lies in the interval, it is
// the answer; otherwise the one of s and s+1 that does, or the nearer if
// both do. Java's Float.toString, the paper's own client, also wants two
// digits at least: it scales a subnormal c below 8 by 10 and tries the
// shorter pair only from s ≥ 100. strconv wants the true shortest (1e-45,
// 3e-44), so neither rule is here.
func float32ToDecimal(u uint32) (d uint32, e10 int) {
	c, q := u&(1<<23-1), int(u>>23)
	if q == 0 {
		q = float32QMin
	} else {
		c |= 1 << 23
		q += float32QMin - 1
		// An integer below 2²⁴ is its own shortest decimal.
		if mq := -q; 0 < mq && mq < 24 && c&(1<<mq-1) == 0 {
			return c >> mq, 0
		}
	}
	odd := c & 1 // a tie at a bound rounds to even: an odd c's interval is open
	cb := uint64(c) << 2
	cbl, cbr := cb-2, cb+2
	k := flog10pow2(q)
	if c == float32CMin && q != float32QMin { // the float below is half as near
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 33
	g := float32Pow10[k-float32KMin]
	vb, vbl, vbr := roundToOdd(g, cb<<h), roundToOdd(g, cbl<<h)+odd, roundToOdd(g, cbr<<h)-odd

	// Every candidate is weighed, each test a 0/1 from the sign bit of a
	// difference (all terms are below 2³⁰): which one wins depends on the
	// digits, and a branch on it would be mispredicted half the time.
	s := vb >> 2
	t := s + 1
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	uin, win := 1^(s<<2-vbl)>>31, 1^(vbr-t<<2)>>31
	upin, wpin := 1^(sp10<<2-vbl)>>31, 1^(vbr-tp10<<2)>>31
	above := ((s+t)<<1 - vb - s&1) >> 31 // vb past the midpoint of s and t, or on it with s odd
	d = s + win&(^uin|above)
	if (upin^wpin)&((9-s)>>31) != 0 { // one of the shorter pair, and s ≥ 10
		d = sp10 + 10*wpin
	}
	return d, k
}

// roundToOdd returns g·cp/2⁹⁵ rounded to odd as the paper does: its integer
// part, with the last bit set when the 31 bits of g·cp/2⁶⁴ below it are not
// all zero.
func roundToOdd(g, cp uint64) uint32 {
	x, _ := bits.Mul64(g, cp)
	return uint32(x>>31) | uint32((x&(1<<32-1)+(1<<32-1))>>32)
}

// Giulietti's integer forms of ⌊log₁₀ 2^q⌋, ⌊log₁₀ ¾·2^q⌋ and ⌊log₂ 10^e⌋,
// exact far beyond float32's range.
func flog10pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func flog10threeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// float32Pow10[k-float32KMin] is 10^-k as a 63-bit g with 10^-k < g·2^r for
// r = ⌊log₂ 10^-k⌋ - 62: the top 63 bits of ⌊10^-k·2^(125-r)⌋+1, plus 1, as
// the paper's appendix tabulates them. k runs over the decimal exponents
// float32ToDecimal reaches (TestFloat32PowersTable re-derives every entry).
const float32KMin = -45

var float32Pow10 = [...]uint64{
	0x59aedfc10d7279c6, 0x47bf19673df52e38, 0x72cb5bd86321e38d, 0x5bd5e313828182d7, // -45
	0x4977e8dc68679be0, 0x758ca7c70d7292ff, 0x5e0a1fd271287599, 0x4b3b4ca85a86c47b, // -41
	0x785ee10d5da46d91, 0x604be73de4838ada, 0x4d0985cb1d3608af, 0x7b426fab61f00de4, // -37
	0x629b8c891b267183, 0x4ee2d6d415b85acf, 0x7e37be2022c0914c, 0x64f964e68233a770, // -33
	0x50c783eb9b5c85f3, 0x409f9cbc7c4a04c3, 0x6765c793fa10079e, 0x52b7d2dcc80cd2e5, // -29
	0x422ca8b0a00a4251, 0x69e10de76676d081, 0x54b40b1f852bda01, 0x43c33c1937564801, // -25
	0x6c6b935b8bbd4001, 0x56bc75e2d6310001, 0x4563918244f40001, 0x6f05b59d3b200001, // -21
	0x58d15e1762800001, 0x470de4df82000001, 0x71afd498d0000001, 0x5af3107a40000001, // -17
	0x48c2739500000001, 0x746a528800000001, 0x5d21dba000000001, 0x4a817c8000000001, // -13
	0x7735940000000001, 0x5f5e100000000001, 0x4c4b400000000001, 0x7a12000000000001, // -9
	0x61a8000000000001, 0x4e20000000000001, 0x7d00000000000001, 0x6400000000000001, // -5
	0x5000000000000001, 0x4000000000000001, 0x6666666666666667, 0x51eb851eb851eb86, // -1
	0x4189374bc6a7ef9e, 0x68db8bac710cb296, 0x53e2d6238da3c212, 0x431bde82d7b634db, // 3
	0x6b5fca6af2bd215f, 0x55e63b88c230e77f, 0x44b82fa09b5a52cc, 0x6df37f675ef6eae0, // 7
	0x57f5ff85e5925580, 0x465e6604b7a84466, 0x709709a125da070a, 0x5a126e1a84ae6c08, // 11
	0x480ebe7b9d58566d, 0x734aca5f6226f0ae, 0x5c3bd5191b525a25, 0x49c97747490eae84, // 15
	0x760f253edb4ab0d3, 0x5e72843249088d76, 0x4b8ed0283a6d3df8, 0x78e480405d7b9659, // 19
	0x60b6cd004ac94514, 0x4d5f0a66a23a9daa, 0x7bcb43d769f762a9, 0x63090312bb2c4eee, // 23
	0x4f3a68dbc8f03f25, 0x7ec3daf941806507, 0x65697bfa9acd1da0, 0x51212ffbaf0a7e19, // 27
	0x40e7599625a1fe7b, // 31
}
