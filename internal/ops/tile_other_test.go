//go:build !amd64 || purego

package ops

// tilePath is one path mulTileAcc can take; without assembly there is one,
// the Go loops.
type tilePath struct{ name string }

func tilePaths() []tilePath { return []tilePath{{"go"}} }

func (tilePath) use() (restore func()) { return func() {} }
