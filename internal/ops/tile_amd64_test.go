//go:build amd64 && !purego

package ops

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// tilePath is one path mulTileAcc can take: tile8x16 (zmm, with AVX-512F),
// tile4x8 (ymm, with AVX2 and FMA) or the Go loops alone (go).
type tilePath struct {
	name     string
	zmm, ymm bool
}

// tilePaths are the paths this CPU can run, its own first.
func tilePaths() []tilePath {
	var ps []tilePath
	for _, p := range []tilePath{{"zmm", true, true}, {"ymm", false, true}, {"go", false, false}} {
		if (!p.zmm || avx512) && (!p.ymm || avx2FMA) {
			ps = append(ps, p)
		}
	}
	return ps
}

// use switches mulTileAcc (and everything else the flags select) to the
// path and returns the switch back to the CPU's own.
func (p tilePath) use() (restore func()) {
	zmm, ymm := avx512, avx2FMA
	avx512, avx2FMA = p.zmm, p.ymm
	return func() { avx512, avx2FMA = zmm, ymm }
}

// TestMulTileAccUsesSIMD: the dispatch flags agree with what the kernel
// reports of the CPU (/proc/cpuinfo, a source independent of our CPUID
// stub), each assembly tile asks for the Go loops' redo only when an
// accumulator it writes is NaN, mulTileAcc runs the tile its flags select
// for tiles of every padded height and of widths 5 and 13, and every
// pointwise kind with a routine runs it. A broken stub, NaN check or
// dispatch would otherwise send every tile or typed loop to another path
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
	// Linux lists avx512f only where it saves the opmask and ZMM state.
	if want = want && slices.Contains(flags, "avx512f"); avx512 != want {
		t.Fatalf("avx512 = %v, but /proc/cpuinfo reports avx2, fma and avx512f: %v", avx512, want)
	}
	if !avx2FMA {
		return
	}

	// Each tile's NaN report: 8 rows, 3 deep, 16 columns wide for tile4x8
	// (two strips, two passes) and 13 for tile8x16 (one masked strip); the
	// NaN goes in the last column either writes, at k = 2.
	l := newTileLayout(8, 3, 16, false, true)
	a, b, acc, pa := make([]float32, l.aLen), make([]float32, l.bLen), make([]float64, 8*16), make([]float64, 8*3)
	for i := range a {
		a[i] = float32(i)
	}
	packA(pa, 8, a, l.a0, l.ai, l.ak, l.kk)
	tiles := map[string]func() bool{
		"tile4x8": func() bool { return tile4x8(&pa[0], l.kk, &b[l.bBase+l.jLo], l.bRS, &acc[0], 16, 2, 2, true) },
	}
	if avx512 {
		tiles["tile8x16"] = func() bool { return tile8x16(&pa[0], l.kk, &b[l.bBase+l.jLo], l.bRS, &acc[0], 13, 8, true) }
	}
	for name, tile := range tiles {
		clear(b)
		if tile() {
			t.Fatalf("%s reports a NaN accumulator in a finite tile", name)
		}
		b[len(b)-1] = float32(math.NaN())
		if name == "tile8x16" {
			// Column 15 is past w = 13: its NaN is no accumulator's.
			if tile() {
				t.Fatalf("%s reports a NaN in a column past w", name)
			}
			b[len(b)-4] = float32(math.NaN())
		}
		if !tile() {
			t.Fatalf("%s does not report a NaN accumulator", name)
		}
	}

	// Which tile ran. A height that is not a whole number of 4-row passes
	// runs an assembly tile with its last pass padded: the padded rows
	// repeat the last real row, so the tile alone writes acc's rows
	// rt…tileRows(rt)−1 (the Go loop never touches them), with that row's
	// sums in column 0. tile4x8 writes its remainder strip past acc's rows;
	// tile8x16 writes nothing past them. A Go redo rewrites rows 0…rt−1 with
	// the same sums, so it cannot show there: an infinity in B's last column
	// meets no zero, and the tile that runs, called on the same data, must
	// report no NaN (else mulTileAcc would redo it).
	for _, path := range tilePaths() {
		func() {
			defer path.use()()
			for _, w := range []int{5, 13} {
				ran := path.name
				if path.name == "ymm" && w < 8 {
					ran = "go"
				}
				for _, rt := range []int{1, 2, 3, 5, 6, 7} {
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
					acc, pa := tileGarbage(rows*(w+8)), make([]float64, rows*l.kk)
					packA(pa, rt, a, l.a0, l.ai, l.ak, l.kk)
					direct := make([]float64, rows*(w+8))
					var nan bool
					switch ran {
					case "zmm":
						nan = tile8x16(&pa[0], l.kk, &b[l.bBase+l.jLo], l.bRS, &direct[0], w, rows, true)
					case "ymm":
						side := direct[rows*w:]
						nan = tile4x8(&pa[0], l.kk, &b[l.bBase+l.jLo], l.bRS, &direct[0], w, w/8, rows/4, true) ||
							tile4x8(&pa[0], l.kk, &b[l.bBase+l.jLo+w-8], l.bRS, &side[0], 8, 1, rows/4, true)
					}
					if nan {
						t.Fatalf("%s, %d×%d tile: an infinity in B makes the tile report a NaN accumulator", path.name, rt, w)
					}
					mulTileAcc(rt, a, l.a0, l.ai, l.ak, l.kk, b, l.bBase, l.bRS, l.jLo, acc, w, pa)
					if last := acc[(rt-1)*w : rt*w]; !math.IsInf(last[w-1], 1) {
						t.Fatalf("%s, %d×%d tile: acc row %d = %v, want it to end +Inf", path.name, rt, w, rt-1, last)
					}
					padded := acc[rt*w] == acc[(rt-1)*w]
					side := slices.ContainsFunc(acc[rows*w:], func(v float64) bool { return math.Float64bits(v) != tileGarbageBits })
					if got := map[[2]bool]string{{true, false}: "zmm", {true, true}: "ymm", {false, false}: "go"}[[2]bool{padded, side}]; got != ran {
						t.Fatalf("%s, %d×%d tile: padded rows written %v, past them %v: ran %q, want %q", path.name, rt, w, padded, side, got, ran)
					}
				}
			}
		}()
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
