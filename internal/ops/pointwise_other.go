//go:build !amd64 || purego

package ops

// pointwiseSIMD writes nothing where no assembly is built: every typed loop
// of a pointwise program runs in Go.
func pointwiseSIMD(op *pointwise, d, a, b []float32) int { return 0 }
