//go:build amd64 && !purego

package ops

// avx2FMA reports that the CPU has AVX2 and FMA and the OS saves YMM state:
// mulTileAcc runs its 4- and 8-row tiles through tile4x8, and the typed
// loops of a pointwise program run pointwise_amd64.s. It is set once, here,
// and never written again.
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
// acc (row stride w): A at a + r·ai + k·ak, B at b + k·bRS + j, every
// accumulator summed over k = 0…kk−1 in ascending order (tile_amd64.s).
// nan reports that some accumulator it wrote is NaN. kk, strips and passes
// must be positive; mulTileAcc checks every index it reads or writes before
// the call.
//
//go:noescape
func tile4x8(a *float32, ai, ak, kk int, b *float32, bRS int, acc *float64, w, strips, passes int) (nan bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
