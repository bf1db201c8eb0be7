//go:build !amd64 || purego

package ops

// avx2FMA and avx512 are false where no assembly is built: mulTileAcc runs
// its one Go loop, row by row, for every height 1–8, contraction.finish its
// Go loop, the depthwise stencil its tap loop for every kernel size, and
// pointwise programs their Go loops.
const avx2FMA, avx512 = false, false

func tile4x8(a *float64, kk int, b *float32, bRS int, acc *float64, w, strips, passes int, first bool) (nan bool) {
	panic("ops: tile4x8 called without an assembly tile")
}

func tile8x16(a *float64, kk int, b *float32, bRS int, acc *float64, w, rows int, first bool) (nan bool) {
	panic("ops: tile8x16 called without an assembly tile")
}

func finishPD(dst *float32, acc *float64, n int, alpha, c float64) {
	panic("ops: finishPD called without an assembly routine")
}

func depthwise4(band, wts, bias *float64, dst *float32, plane, kh, kw, dx, dy, sx, rowAdv, seg, ow, n int) (nan bool) {
	panic("ops: depthwise4 called without an assembly stencil")
}

func interleave4(dst *float64, x0, x1, x2, x3 *float32, n int) {
	panic("ops: interleave4 called without an assembly routine")
}
