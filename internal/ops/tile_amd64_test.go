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
// accumulator is NaN, tiles of every height and a column remainder run it,
// and every pointwise kind with a routine runs it. A broken stub, NaN check
// or dispatch would otherwise send every tile or typed loop to the Go loops
// with every parity test still green.
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
	a, b, acc, pa := make([]float32, l.aLen), make([]float32, l.bLen), make([]float64, 8*16), make([]float64, 8*3)
	for i := range a {
		a[i] = float32(i)
	}
	packA(pa, 8, a, l.a0, l.ai, l.ak, l.kk)
	tile := func() bool {
		return tile4x8(&pa[0], l.kk, &b[l.bBase+l.jLo], l.bRS, &acc[0], 16, 2, 2, true)
	}
	if tile() {
		t.Fatal("tile4x8 reports a NaN accumulator in a finite tile")
	}
	b[len(b)-1] = float32(math.NaN()) // the last strip's last column, k = 2
	if !tile() {
		t.Fatal("tile4x8 does not report a NaN accumulator")
	}
	// A height that is not a whole number of 4-row passes runs the tile
	// with its last pass padded: the padded rows repeat the last real row,
	// so the tile alone writes acc's rows rt…tileRows(rt)−1 (the Go loop
	// never touches them), with that row's sums. Thirteen columns are one
	// whole strip and a remainder strip over columns 5…12, whose padded rows
	// land in the side accumulators past acc's rows. An infinity in B's last
	// column meets no zero there: it costs no NaN, so no Go redo.
	for _, rt := range []int{1, 2, 3, 5, 6, 7} {
		const w = 13
		rows := tileRows(rt)
		l := newTileLayout(rt, 27, w, false, false)
		a, b := make([]float32, l.aLen), make([]float32, l.bLen)
		for i := range a {
			a[i] = float32(i%7) + 1
		}
		for i := range b {
			b[i] = float32(i%5) - 2
		}
		b[len(b)-1] = float32(math.Inf(1))
		acc, pa := tileScratch(rt, l.kk, w)
		side := acc[rows*w:]
		packA(pa, rt, a, l.a0, l.ai, l.ak, l.kk)
		if tile4x8(&pa[0], l.kk, &b[l.bBase+l.jLo+w-8], l.bRS, &side[0], 8, 1, rows/4, true) {
			t.Fatalf("%d-row tile: an infinity in B makes a NaN accumulator", rt)
		}
		clear(acc)
		mulTileAcc(rt, a, l.a0, l.ai, l.ak, l.kk, b, l.bBase, l.bRS, l.jLo, acc, w, pa)
		for r := rt; r < rows; r++ {
			for _, c := range [][]float64{acc[:rows*w], side} {
				stride := len(c) / rows
				if pad, last := c[r*stride:][:8], c[(rt-1)*stride:][:8]; !slices.Equal(pad, last) {
					t.Fatalf("%d-row tile: padded row %d = %v, want row %d's sums %v: the tile did not run", rt, r, pad, rt-1, last)
				}
			}
		}
		if last := acc[(rt-1)*w : rt*w]; !math.IsInf(last[w-1], 1) || !slices.Equal(last[w-8:], side[(rt-1)*8:][:8]) {
			t.Fatalf("%d-row tile: acc row %d = %v, want the remainder strip's sums %v ending +Inf", rt, rt-1, last, side[(rt-1)*8:][:8])
		}
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

// TestDepthwiseUsesSIMD: where the CPU has AVX2 and FMA, a depthwise Conv
// bands its channels four at a time, a request over whole channel groups
// fills that band (its last fill interleaved four channels) and depthwise4
// runs over it, handing a group back to the Go loops only when an
// accumulator is NaN; the finish and band-fill routines take their whole
// groups too. A broken dispatch would otherwise run every channel on the
// Go loops with every parity test still green.
func TestDepthwiseUsesSIMD(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2+FMA on this CPU: the Go loops are the only path")
	}
	x := randSource(510, 1, 8, 6, 6)
	src := virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 8}), x, randSource(511, 8, 1, 3, 3), randSource(512, 8))
	c := depthwiseOf(t, "depthwise", src)
	if c.dw.group != dwLanes || TileSpan(src) != dwLanes*c.n {
		t.Fatalf("depthwise conv: channel group of %d, tile span %d; want %d and %d", c.dw.group, TileSpan(src), dwLanes, dwLanes*c.n)
	}
	got := make([]float32, 8*c.n)
	c.LoadBlock(got, 0, len(got))
	if c.dw.lanes != dwLanes {
		t.Fatalf("a request over two channel groups filled a band of %d channels, want %d", c.dw.lanes, dwLanes)
	}
	var bias [dwLanes]float64
	dst, wts := make([]float32, dwLanes*c.n), make([]float64, dwLanes*c.k)
	if !c.dw.simd(dst, c.n, wts, &bias, c.band, 0, c.n) {
		t.Fatal("depthwise4 reports a NaN accumulator over finite data")
	}
	wts[dwLanes*c.k-1] = math.NaN()
	if c.dw.simd(dst, c.n, wts, &bias, c.band, 0, c.n) {
		t.Fatal("depthwise4 does not report a NaN accumulator")
	}
	acc, out := make([]float64, 9), make([]float32, 9)
	if n := finishSIMD(out, acc, 1, 0); n != 8 {
		t.Errorf("finishSIMD rounded %d of 9 accumulators, want 8", n)
	}
	band, plane := make([]float64, dwLanes*9), make([]float32, 9)
	if n := interleaveSIMD(band, plane, plane, plane, plane); n != 8 {
		t.Errorf("interleaveSIMD widened %d of 9 columns, want 8", n)
	}
}
