//go:build amd64 && !purego

package ops

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMulTileAccUsesSIMD: the dispatch flag agrees with what the kernel
// reports of the CPU (/proc/cpuinfo, a source independent of our CPUID
// stub), the assembly tile asks for the Go loops' redo only when an
// accumulator is NaN, and every pointwise kind with a routine runs it. A
// broken stub, NaN check or dispatch would otherwise send every tile or
// typed loop to the Go loops with every parity test still green.
func TestMulTileAccUsesSIMD(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check the dispatch against: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := slices.Contains(flags, "avx2") && slices.Contains(flags, "fma")
	if avx2FMA != want {
		t.Fatalf("avx2FMA = %v, but /proc/cpuinfo reports avx2 and fma: %v", avx2FMA, want)
	}
	if !avx2FMA {
		return
	}
	l := newTileLayout(8, 3, 16, false, true)
	a, b, acc := make([]float32, l.aLen), make([]float32, l.bLen), make([]float64, 8*16)
	for i := range a {
		a[i] = float32(i)
	}
	tile := func() bool {
		return tile4x8(&a[l.a0], l.ai, l.ak, l.kk, &b[l.bBase+l.jLo], l.bRS, &acc[0], 16, 2, 2)
	}
	if tile() {
		t.Fatal("tile4x8 reports a NaN accumulator in a finite tile")
	}
	b[len(b)-1] = float32(math.NaN()) // the last strip's last column, k = 2
	if !tile() {
		t.Fatal("tile4x8 does not report a NaN accumulator")
	}
	d, x, y := make([]float32, 16), make([]float32, 16), make([]float32, 16)
	for i := range x {
		x[i] = 0.5 // on Exp's and Sigmoid's fast path
	}
	for _, c := range simdCases() {
		if got := pointwiseSIMD(c.op, d, x, y); got != len(d) {
			t.Errorf("%s: pointwiseSIMD wrote %d of %d elements: its typed loop runs in Go", c.name, got, len(d))
		}
	}
}
