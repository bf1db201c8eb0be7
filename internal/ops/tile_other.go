//go:build !amd64 || purego

package ops

// avx2FMA is false where no assembly is built: mulTileAcc runs its Go loops
// for every height, and pointwise programs their Go loops.
const avx2FMA = false

func tile4x8(a *float32, ai, ak, kk int, b *float32, bRS int, acc *float64, w, strips, passes int) (nan bool) {
	panic("ops: tile4x8 called without an assembly tile")
}
