package ops

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// tileSpecials are the float32 operands whose products and sums stress
// bit-exactness: signed zeros, subnormals and the largest finite values,
// then infinities, then NaNs with payloads (a signaling one among them).
// The first tileFinite never make a NaN: products are exact and no sum of
// them comes near the float64 range.
var tileSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x00400001), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345),
	math.Float32frombits(0x7f800abc),
}

const tileFinite, tileNoNaN = 8, 10

// tileData is n float32s, most of them random, each one of specials with
// probability p.
func tileData(rng *rand.Rand, n int, specials []float32, p float64) []float32 {
	d := make([]float32, n)
	for i := range d {
		if rng.Float64() < p {
			d[i] = specials[rng.Intn(len(specials))]
		} else {
			d[i] = float32(rng.NormFloat64())
		}
	}
	return d
}

// tileGarbage is an accumulator buffer filled with a NaN no kernel
// produces, so an element a kernel fails to write shows.
func tileGarbage(n int) []float64 {
	acc := make([]float64, n)
	for i := range acc {
		acc[i] = math.Float64frombits(0x7ff0_dead_beef_0001)
	}
	return acc
}

// tileLayout places an rt×kk A and a kk×w B in their backing slices: A
// row-major or transposed (ak ≠ 1), B dense or a panel inside a wider
// matrix (bRS > w, jLo > 0).
type tileLayout struct {
	a0, ai, ak, aLen      int
	bBase, bRS, jLo, bLen int
	transposedA, wideB    bool
	rt, kk, w             int
}

func newTileLayout(rt, kk, w int, transposedA, wideB bool) tileLayout {
	l := tileLayout{rt: rt, kk: kk, w: w, transposedA: transposedA, wideB: wideB}
	if transposedA {
		l.a0, l.ai, l.ak = 1, 1, rt+1 // A stored kk × (rt+1)
	} else {
		l.a0, l.ai, l.ak = 3, kk+2, 1 // rows padded by 2
	}
	l.aLen = l.a0 + (rt-1)*l.ai + (kk-1)*l.ak + 1
	l.bRS = w
	if wideB {
		l.bBase, l.bRS, l.jLo = 2, w+5, 3
	}
	l.bLen = l.bBase + (kk-1)*l.bRS + l.jLo + w
	return l
}

func (l tileLayout) String() string {
	return fmt.Sprintf("rt%d/w%d/k%d/transposedA=%v/wideB=%v", l.rt, l.w, l.kk, l.transposedA, l.wideB)
}

// tileScratch is the accumulators (tileRows(rt) rows of w) and packed A
// (one K-block) mulTileAcc may use for an rt×w tile over kk.
func tileScratch(rt, kk, w int) (acc, pa []float64) {
	return tileGarbage(tileRows(rt) * w), make([]float64, tileRows(rt)*min(kk, tileK))
}

// TestMulTileAccSIMDMatchesGo: the assembly tile (every row height — 1 and 2
// padded to a 4-row pass — whole 8-column strips, the remainder in Go)
// writes the Go loops' accumulators bit for bit — NaN payloads included —
// over widths that exercise every remainder, K from 1 to 517 (past one
// K-block), a column-strided A and a B panel inside a wider matrix, with
// special values mixed into both operands. With finite specials only, no
// accumulator can be NaN, so every tile is the FMA's own; with infinities
// (Inf·0, Inf − Inf) and NaN operands, the NaN tiles are the Go loops'
// redo. A 1-row tile over a B of infinities and finite A stays the tile's:
// its padded rows must cost no wrong value.
func TestMulTileAccSIMDMatchesGo(t *testing.T) {
	if !avx2FMA {
		t.Skip("no AVX2+FMA tile: this build or CPU runs the Go loops only")
	}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 129}
	rng := rand.New(rand.NewSource(33))
	check := func(name string, l tileLayout, a, b []float32) {
		t.Helper()
		rt, kk, w := l.rt, l.kk, l.w
		got, pa := tileScratch(rt, kk, w)
		want := tileGarbage(rt * w)
		mulTileAcc(rt, a, l.a0, l.ai, l.ak, kk, b, l.bBase, l.bRS, l.jLo, got, w, pa)
		mulTileGo(rt, a, l.a0, l.ai, l.ak, kk, b, l.bBase, l.bRS, l.jLo, want, w, 0)
		for i := range want {
			if g, x := math.Float64bits(got[i]), math.Float64bits(want[i]); g != x {
				t.Fatalf("%s, %v: acc[%d] (row %d, col %d) = %#016x, Go loops %#016x", name, l, i, i/w, i%w, g, x)
			}
		}
	}
	for _, specials := range [][]float32{tileSpecials[:tileFinite], tileSpecials[:tileNoNaN], tileSpecials} {
		for _, rt := range []int{1, 2, 4, 8} {
			for _, kk := range []int{1, 2, 3, 27, 512, 517} {
				for _, w := range widths {
					for _, transposedA := range []bool{false, true} {
						for _, wideB := range []bool{false, true} {
							l := newTileLayout(rt, kk, w, transposedA, wideB)
							// About two special operands per accumulator:
							// outputs stay a mix of finite, infinite and NaN.
							p := 1 / float64(kk+3)
							a, b := tileData(rng, l.aLen, specials, p), tileData(rng, l.bLen, specials, p)
							check(fmt.Sprintf("%d specials", len(specials)), l, a, b)
						}
					}
				}
			}
		}
	}
	for _, kk := range []int{1, 27, 517} {
		l := newTileLayout(1, kk, 16, false, true)
		a := tileData(rng, l.aLen, tileSpecials[:tileFinite], 0.2)
		b := tileData(rng, l.bLen, tileSpecials[tileFinite:tileNoNaN], 0.5)
		check("±Inf in B, one row", l, a, b)
	}
}

// TestMulTileAccBounds: an operand one element short of what the tile
// reads (or, for acc and the packed A, writes) fails as a Go bounds panic
// before any element is touched out of range — on the assembly path and on
// the Go loops alike, within one K-block and across two.
func TestMulTileAccBounds(t *testing.T) {
	for _, rt := range []int{1, 2, 4, 8} {
		for _, kk := range []int{5, 517} {
			for _, w := range []int{13, 16} {
				for _, transposedA := range []bool{false, true} {
					l := newTileLayout(rt, kk, w, transposedA, true)
					a, b := make([]float32, l.aLen), make([]float32, l.bLen)
					acc, pa := tileScratch(rt, kk, w)
					if !avx2FMA {
						// The Go loops alone: rt rows of accumulators, no
						// packed A.
						acc, pa = acc[:rt*w], nil
					}
					call := func(a, b []float32, acc, pa []float64) {
						mulTileAcc(rt, a, l.a0, l.ai, l.ak, l.kk, b, l.bBase, l.bRS, l.jLo, acc, w, pa)
					}
					call(a, b, acc, pa)
					// Capacity is what bounds memory safety: the short
					// operands are cut with full slice expressions.
					short := map[string]func(){
						"A":   func() { call(a[:len(a)-1:len(a)-1], b, acc, pa) },
						"B":   func() { call(a, b[:len(b)-1:len(b)-1], acc, pa) },
						"acc": func() { call(a, b, acc[:len(acc)-1:len(acc)-1], pa) },
					}
					if pa != nil {
						short["packed A"] = func() { call(a, b, acc, pa[:len(pa)-1:len(pa)-1]) }
					}
					for name, short := range short {
						func() {
							defer func() {
								if _, ok := recover().(runtime.Error); !ok {
									t.Errorf("%v: %s one element short: want a runtime.Error panic", l, name)
								}
							}()
							short()
						}()
					}
				}
			}
		}
	}
}

// BenchmarkMulTileAcc reports the contraction micro-kernel's rate in
// GFLOP/s on tile shapes (rows × columns × K) through the assembly tile
// (simd) and through the Go loops (go): two long-K and wide-panel shapes,
// then the workloads' own — head's M = 1 classifier (1×16×64), cnn's 1×1
// convs (8×512×16, 8×512×27) and encoder's projections and attention
// products (8×64×256, 8×16×16).
func BenchmarkMulTileAcc(b *testing.B) {
	for _, sh := range [][3]int{{8, 64, 512}, {8, 256, 64}, {1, 16, 64}, {8, 512, 16}, {8, 512, 27}, {8, 64, 256}, {8, 16, 16}} {
		rt, w, kk := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(1))
		l := newTileLayout(rt, kk, w, false, false)
		a, bd := tileData(rng, l.aLen, nil, 0), tileData(rng, l.bLen, nil, 0)
		acc, pa := tileScratch(rt, kk, w)
		run := func(b *testing.B, tile func()) {
			for b.Loop() {
				tile()
			}
			b.ReportMetric(2*float64(rt*w*kk)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		}
		b.Run(fmt.Sprintf("%dx%dx%d/simd", rt, w, kk), func(b *testing.B) {
			if !avx2FMA {
				b.Skip("no AVX2+FMA tile in this build or on this CPU")
			}
			run(b, func() { mulTileAcc(rt, a, l.a0, l.ai, l.ak, kk, bd, l.bBase, l.bRS, l.jLo, acc, w, pa) })
		})
		b.Run(fmt.Sprintf("%dx%dx%d/go", rt, w, kk), func(b *testing.B) {
			run(b, func() { mulTileGo(rt, a, l.a0, l.ai, l.ak, kk, bd, l.bBase, l.bRS, l.jLo, acc, w, 0) })
		})
	}
}
