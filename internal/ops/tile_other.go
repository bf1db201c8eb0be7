//go:build !amd64 || purego

package ops

// avx2FMA is false where no assembly is built: mulTileAcc runs its Go loops
// for every height, contraction.finish and the depthwise stencil theirs, and
// pointwise programs their Go loops.
const avx2FMA = false

func tile4x8(a *float64, kk int, b *float32, bRS int, acc *float64, w, strips, passes int, first bool) (nan bool) {
	panic("ops: tile4x8 called without an assembly tile")
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
