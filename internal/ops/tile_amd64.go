//go:build amd64 && !purego

package ops

// avx2FMA reports that the CPU has AVX2 and FMA and the OS saves YMM state:
// mulTileAcc widens A through interleave4 and runs the whole 8-column
// strips of every tile through tile4x8, contraction.finish rounds through
// finishPD, a depthwise Conv fills and runs its channel groups through
// interleave4 and depthwise4, and the typed loops of a pointwise program
// run pointwise_amd64.s. It is set once, here, and never written again.
var avx2FMA = hasAVX2FMA()

func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// tile4x8 writes strips 8-column strips of a passes·4-row output tile into
// acc (row stride w): A from the packed micro-panel a (pass p's element
// (r, k) at 4·p·kk + 4k + r), B at b + k·bRS + j, every accumulator summed
// over k = 0…kk−1 in ascending order, from +0 when first is set, else from
// the value acc holds (tile_amd64.s). nan reports that some accumulator it
// wrote is NaN. kk, strips and passes must be positive; mulTileAcc checks
// every index it reads or writes before the call.
//
//go:noescape
func tile4x8(a *float64, kk int, b *float32, bRS int, acc *float64, w, strips, passes int, first bool) (nan bool)

// finishPD writes dst[t] = float32(float64(acc[t]·alpha) + c) for the n
// elements of acc, n a positive multiple of 4 (tile_amd64.s): the product
// and the sum each rounded to float64, acc the first operand of both, no
// fused multiply-add. finishSIMD checks both ends before the call.
//
//go:noescape
func finishPD(dst *float32, acc *float64, n int, alpha, c float64)

// depthwise4 is the depthwise stencil of one channel group: four output
// channels of n outputs over a channel-interleaved band, written to four
// output planes (depthwise_amd64.s). nan reports that some accumulator was
// NaN. depthwise.simd checks the last band, weight and output element it
// touches before the call.
//
//go:noescape
func depthwise4(band, wts, bias *float64, dst *float32, plane, kh, kw, dx, dy, sx, rowAdv, seg, ow, n int) (nan bool)

// interleave4 widens four planes of n float32 each into one
// channel-interleaved float64 run, dst[4t + l] = float64(xl[t]), n a
// positive multiple of 4 (depthwise_amd64.s). interleaveSIMD checks the
// last element of each slice before the call.
//
//go:noescape
func interleave4(dst *float64, x0, x1, x2, x3 *float32, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
