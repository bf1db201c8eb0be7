//go:build !amd64 || purego

package ops

// simdTile is false where no assembly tile is built: mulTileAcc runs its Go
// loops for every height.
const simdTile = false

func tile4x8(a *float32, ai, ak, kk int, b *float32, bRS int, acc *float64, w, strips, passes int) (nan bool) {
	panic("ops: tile4x8 called without an assembly tile")
}
