package ops

import (
	"fmt"
	"math"
	"testing"

	"dnnfusion/internal/tensor"
)

// tileGrid is every row tile from 1 to 8 × 7 column panels from 8 to 512:
// any schedule ApplySchedule can inject, normalized.
func tileGrid() []Schedule {
	var grid []Schedule
	for rt := 1; rt <= 8; rt++ {
		for _, cp := range []int{8, 16, 32, 64, 128, 256, 512} {
			grid = append(grid, Schedule{RowTile: rt, ColPanel: cp})
		}
	}
	return grid
}

// assertDelivery holds one contraction to the oracle over the whole tile
// grid: under every schedule the tree is blocked end to end, and LoadBlock
// over each request shape — the whole (tile-aligned) range, a mid-row start,
// a range crossing a GEMM (batch matrix, conv group) boundary, a single
// element — equals MaterializeInto bit for bit. rowsOf is the GEMM's row
// length and gemm its element count, which place the ranges.
func assertDelivery(t *testing.T, name string, mk func() Source, rowsOf, gemm int) {
	t.Helper()
	ref := mk()
	want := tensor.NewOf(ref.Shape())
	MaterializeInto(ref, want, make([]int, ref.Shape().Rank()))
	total := len(want.Data())
	cross := gemm - rowsOf - 1 // the last row and a bit of one GEMM, into the next
	if cross+2*rowsOf+2 > total {
		cross = total - 2*rowsOf - 2
	}
	ranges := [][2]int{
		{0, total},
		{rowsOf + rowsOf/2, min(2*rowsOf+3, total-rowsOf-rowsOf/2)},
		{cross, 2*rowsOf + 2},
		{total/2 + 1, 1},
	}
	for _, sched := range tileGrid() {
		src := mk()
		ApplySchedule(src, sched)
		if paths := ScalarPaths(src); len(paths) != 0 {
			t.Fatalf("%s %v: ScalarPaths = %v, want none", name, sched, paths)
		}
		blk, _ := AsBlock(src)
		for _, r := range ranges {
			off, n := r[0], r[1]
			got := make([]float32, n)
			blk.LoadBlock(got, off, n)
			for i, v := range got {
				if w := want.Data()[off+i]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s %v range [%d,+%d): element %d = %v, oracle says %v", name, sched, off, n, off+i, v, w)
				}
			}
		}
	}
}

// TestContractionDeliveryMatrix is the parity contract of the one
// contraction driver over the ways an operand can reach it: every A delivery
// × every B delivery × every epilogue, each over the request shapes and the
// 28 schedules of assertDelivery.
func TestContractionDeliveryMatrix(t *testing.T) {
	const m, k, n = 10, 12, 9
	relu := func(s Source) Source { return virtualize(t, NewRelu(), s) }
	dims := func(batched bool, d ...int) []int {
		if batched {
			return append([]int{3}, d...)
		}
		return d
	}
	// Each A is [3, m, k] (batched) or [m, k].
	as := map[string]func(batched bool) Source{
		"flat": func(b bool) Source { return randSource(200, dims(b, m, k)...) },
		"strided view": func(b bool) Source { // rows 20 apart
			last := len(dims(b, m, k)) - 1
			return virtualize(t, NewSlice([]int{last}, []int{4}, []int{4 + k}), randSource(201, dims(b, m, 20)...))
		},
		"head-split view": func(b bool) Source {
			if !b {
				return virtualize(t, NewTranspose(1, 0), randSource(202, k, m))
			}
			return virtualize(t, NewTranspose(1, 0, 2), randSource(202, m, 3, k))
		},
		"lazy pointwise": func(b bool) Source { return relu(randSource(203, dims(b, m, k)...)) },
		"lazy contraction-rooted": func(b bool) Source {
			return relu(virtualize(t, NewMatMul(), randSource(204, dims(b, m, 7)...), randSource(205, 7, k)))
		},
	}
	// Each B is [k, n], or broadcasts against the batch as [1, k, n].
	bs := map[string]func() Source{
		"dense rows":      func() Source { return randSource(210, k, n) },
		"transposed":      func() Source { return virtualize(t, NewTranspose(1, 0), randSource(211, n, k)) },
		"batch-broadcast": func() Source { return randSource(212, 1, k, n) },
		"staged lazy":     func() Source { return virtualize(t, NewSigmoid(), randSource(213, k, n)) },
	}
	for an, mkA := range as {
		for bn, mkB := range bs {
			name := fmt.Sprintf("A %s × B %s", an, bn)
			assertDelivery(t, "MatMul "+name, func() Source {
				return virtualize(t, NewMatMul(), mkA(true), mkB())
			}, n, m*n)
			if bn == "batch-broadcast" {
				continue // Gemm operands are rank 2
			}
			for cn, cDims := range map[string][]int{"row C": {n}, "column C": {m, 1}} {
				assertDelivery(t, "Gemm "+name+" + "+cn, func() Source {
					return virtualize(t, NewGemm(0.75, -1.25, false, false), mkA(false), mkB(), randSource(214, cDims...))
				}, n, m*n)
			}
		}
	}
	assertDelivery(t, "Gemm lazy C", func() Source {
		return virtualize(t, NewGemm(1.5, 0.5, false, false), as["lazy pointwise"](false), bs["dense rows"](), relu(randSource(215, m, 1)))
	}, n, m*n)

	// Conv: A is the weight, B the input (packed, in place, staged), the
	// epilogue its bias; 2 images × 2 groups of 6 × 25 GEMMs.
	x := func() Source { return randSource(220, 2, 4, 9, 9) }
	attrs := ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}, Groups: 2}
	for wn, mkW := range map[string]func(dims ...int) Source{
		"flat": func(d ...int) Source { return randSource(221, d...) },
		"lazy": func(d ...int) Source { return relu(randSource(221, d...)) },
	} {
		for _, bias := range []bool{false, true} {
			ins := func(x, w Source) []Source {
				if bias {
					return []Source{x, w, randSource(222, 12)}
				}
				return []Source{x, w}
			}
			name := fmt.Sprintf("Conv W %s bias %t", wn, bias)
			assertDelivery(t, name+" packed X", func() Source {
				return virtualize(t, NewConv(attrs), ins(x(), mkW(12, 2, 3, 3))...)
			}, 25, 6*25)
			assertDelivery(t, name+" staged X", func() Source {
				return virtualize(t, NewConv(attrs), ins(relu(x()), mkW(12, 2, 3, 3))...)
			}, 25, 6*25)
			assertDelivery(t, name+" X in place", func() Source {
				return virtualize(t, NewConv(ConvAttrs{Groups: 2}), ins(x(), mkW(12, 2, 1, 1))...)
			}, 81, 6*81)
		}
	}
}

// TestContractionLazyAPastStageCap: a lazy A is never staged whole, so its
// size is no cliff. 1.05M elements — past stageElemCap — feed a MatMul and a
// Gemm that stay blocked and bit-exact while binding one row group of A
// scratch, not M × K. A shorter row tile injected after the contraction was
// built shrinks the window to its own row group.
func TestContractionLazyAPastStageCap(t *testing.T) {
	const m, k, n = 10, 104900, 3
	if m*k <= stageElemCap {
		t.Fatalf("A of %d elements fits the staging cap %d", m*k, stageElemCap)
	}
	a := virtualize(t, NewRelu(), randSource(230, m, k))
	b := randSource(231, k, n)
	for name, mk := range map[string]func() Source{
		"MatMul": func() Source { return virtualize(t, NewMatMul(), a, b) },
		"Gemm":   func() Source { return virtualize(t, NewGemm(0.5, 2, false, false), a, b, randSource(232, n)) },
	} {
		src := mk()
		for _, rt := range []int{8, 4} {
			ApplySchedule(src, Schedule{RowTile: rt, ColPanel: 8})
			if stages, floats, _ := scratch(src); stages != 1 || floats != rt*k {
				t.Errorf("%s over a %d-element lazy A at rt%d binds %d stages of %d floats, want one %d × K window (%d)", name, m*k, rt, stages, floats, rt, rt*k)
			}
		}
		assertDelivery(t, name+" lazy A past the cap", mk, n, m*n)
	}
}

// TestAttentionChainBitExact holds a fused attention chain to the oracle bit
// for bit: MatMul(Q, Kᵀ) → MulConst → Add(mask) → Softmax(−1) → MatMul(V),
// composed operator by operator as a chain kernel is, so the consumer pulls
// softmax rows into its A window. The grid is batch 1 and 4 over two heads;
// sequence lengths 5 and 37, whose last rows fall outside a full row tile,
// and 16; every consumer × producer schedule of scheduleGrid through
// ApplyChainSchedule; and requests that start and end mid-row.
func TestAttentionChainBitExact(t *testing.T) {
	const heads, dk = 2, 8
	for _, batch := range []int{1, 4} {
		for _, seq := range []int{5, 16, 37} {
			seed := uint64(300 + 10*batch + seq)
			q := randSource(seed, batch, heads, seq, dk)
			k := randSource(seed+1, batch, heads, seq, dk)
			v := randSource(seed+2, batch, heads, seq, dk)
			// An additive padding mask: the last key of every sequence is
			// masked out, the rest carry small offsets.
			mask := tensor.New(batch, 1, 1, seq).Rand(seed + 3)
			for i := seq - 1; i < len(mask.Data()); i += seq {
				mask.Data()[i] = -10000
			}
			mk := func() Source {
				scores := virtualize(t, NewMatMulT(false, true), q, k)
				scaled := virtualize(t, NewMulConst(float32(1/math.Sqrt(dk))), scores)
				probs := virtualize(t, NewSoftmax(-1), virtualize(t, NewAdd(), scaled, AsSource(mask)))
				return virtualize(t, NewMatMul(), probs, v)
			}
			name := fmt.Sprintf("batch %d seq %d", batch, seq)
			want := loadAll(mk())
			row, total := dk, len(want)
			ranges := [][2]int{
				{0, total},
				{row + 3, 2*seq*row - row - 5}, // mid-row to mid-row, across a head
				{total/2 + 1, 1},
			}
			for _, cons := range scheduleGrid {
				for _, prod := range scheduleGrid {
					src := mk()
					ApplyChainSchedule(src, cons, prod)
					if c, ok := src.(*contraction); !ok || c.a.pull == nil {
						t.Fatalf("%s: the consumer does not pull its A in row windows (%T)", name, src)
					}
					if paths := ScalarPaths(src); len(paths) != 0 {
						t.Fatalf("%s: ScalarPaths = %v, want none", name, paths)
					}
					blk, _ := AsBlock(src)
					for _, r := range ranges {
						off, n := r[0], min(r[1], total-r[0])
						got := make([]float32, n)
						for lo := 0; lo < n; lo += 7 {
							blk.LoadBlock(got[lo:min(lo+7, n)], off+lo, min(7, n-lo))
						}
						whole := make([]float32, n)
						blk.LoadBlock(whole, off, n)
						for i := range got {
							w := want[off+i]
							if math.Float32bits(got[i]) != math.Float32bits(w) || math.Float32bits(whole[i]) != math.Float32bits(w) {
								t.Fatalf("%s cons %v prod %v range [%d,+%d): element %d = %v (in 7s) / %v (whole), oracle says %v",
									name, cons, prod, off, n, off+i, got[i], whole[i], w)
							}
						}
					}
				}
			}
		}
	}
}

// countingSource counts the LoadBlock calls that reach the source beneath.
type countingSource struct {
	BlockSource
	calls int
}

func (c *countingSource) LoadBlock(dst []float32, off, n int) {
	c.calls++
	c.BlockSource.LoadBlock(dst, off, n)
}

// TestContractionPullsRowGroupOnce: a consumer that falls back to
// 512-element requests (a fused tail over rows too long to stage whole
// tiles of) must not re-pull — let alone re-contract — a row group per
// request. An 8 × 2048 output group consumed in 512-element slivers pulls
// its 8 rows of A once, and a second execution pulls them again.
func TestContractionPullsRowGroupOnce(t *testing.T) {
	const m, k, n = 16, 6, 2048
	lazy, _ := AsBlock(virtualize(t, NewRelu(), randSource(240, m, k)))
	prod := &countingSource{BlockSource: lazy}
	src := virtualize(t, NewMatMul(), prod, randSource(241, k, n))
	ApplySchedule(src, Schedule{RowTile: 8, ColPanel: 64})
	want := loadAll(src)
	blk, _ := AsBlock(src)
	got := make([]float32, len(want))
	run := func() {
		for _, st := range StagedSources(src) {
			st.Invalidate()
		}
		for off := 0; off < len(got); off += blockLen {
			blk.LoadBlock(got[off:off+blockLen], off, blockLen)
		}
	}
	run()
	if groups := m / 8; prod.calls != groups {
		t.Errorf("%d requests of %d elements pulled the producer %d times, want once per row group (%d)", len(got)/blockLen, blockLen, prod.calls, groups)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d = %v, oracle says %v", i, got[i], want[i])
		}
	}
	run()
	if groups := m / 8; prod.calls != 2*groups {
		t.Errorf("a second execution brought the pulls to %d, want %d: the window must not outlive Invalidate", prod.calls, 2*groups)
	}
}

// depthwiseOf returns the contraction beneath src, failing unless it runs
// the depthwise stencil: a band, no packed panel, no im2col.
func depthwiseOf(t *testing.T, name string, src Source) *contraction {
	t.Helper()
	var c *contraction
	walk(src, func(n Source) {
		if v, ok := n.(*contraction); ok {
			c = v
		}
	})
	switch {
	case c == nil:
		t.Fatalf("%s: no contraction in the tree", name)
	case c.dw == nil || len(c.band) == 0:
		t.Fatalf("%s: a C/g = 1 2-D conv does not run the depthwise stencil", name)
	case c.im2col != nil || c.packed || len(c.panel) != 0:
		t.Fatalf("%s: the depthwise contraction packs (im2col %v, packed %v, panel of %d floats)", name, c.im2col != nil, c.packed, len(c.panel))
	}
	return c
}

// TestDepthwiseStencilParity holds the depthwise stencil bit-exact to the
// oracle over its geometry: 3×3 (the Go register stencil), 5×5, 1×3 and 3×1
// kernels (the generic tap loop) × strides 1, 2 and (2, 1) × pads 0, 1, 2 ×
// dilations 1, 2 × depth multipliers 1, 2, on outputs from 1×1 to 7×9, with
// and without bias, over flat and staged (lazy) input, under column panels
// of 8, 13 and the whole output — panels that end and start mid-row, and
// requests cut at every chunking of assertBlockParity. Nine channels over
// two images are 18 GEMMs: four whole channel groups (depthwise4 where the
// CPU has it; one of them spans the two images) and two remainder GEMMs on
// the Go loops, and requests start and end on a group, inside one, and
// inside a GEMM's plane.
func TestDepthwiseStencilParity(t *testing.T) {
	const groups = 9
	outs := [][2]int{{1, 1}, {7, 9}, {2, 3}, {4, 4}, {1, 9}, {5, 2}, {3, 7}, {6, 8}}
	midRow := false
	geom := 0
	for _, kern := range [][2]int{{3, 3}, {5, 5}, {1, 3}, {3, 1}} {
		for _, stride := range [][2]int{{1, 1}, {2, 2}, {2, 1}} {
			for _, pad := range []int{0, 1, 2} {
				for _, dil := range []int{1, 2} {
					for _, mult := range []int{1, 2} {
						attrs := ConvAttrs{Strides: stride[:], Pads: []int{pad, pad}, Dilations: []int{dil, dil}, Groups: groups}
						// The input that yields the next output size, grown
						// until it has at least one row and column.
						o := outs[geom%len(outs)]
						geom++
						in := [2]int{}
						for d := range in {
							for oh := o[d]; in[d] < 1; oh++ {
								in[d] = (oh-1)*stride[d] + (kern[d]-1)*dil + 1 - 2*pad
							}
						}
						seed := uint64(300 + 4*geom)
						x := randSource(seed, 2, groups, in[0], in[1])
						w := randSource(seed+1, groups*mult, 1, kern[0], kern[1])
						bias := randSource(seed+2, groups*mult)
						for _, withBias := range []bool{false, true} {
							for _, lazy := range []bool{false, true} {
								name := fmt.Sprintf("k%v s%v p%d d%d M/g=%d in %v bias=%v lazy=%v", kern, stride, pad, dil, mult, in, withBias, lazy)
								mk := func() Source {
									ins := []Source{x, w}
									if lazy {
										ins[0] = virtualize(t, NewRelu(), x)
									}
									if withBias {
										ins = append(ins, bias)
									}
									return virtualize(t, NewConv(attrs), ins...)
								}
								ref := mk()
								ow, n := ref.Shape()[3], ref.Shape()[2:].NumElements()
								want := loadAll(ref)
								for _, cp := range []int{8, 13, n} {
									src := mk()
									ApplySchedule(src, Schedule{RowTile: mult, ColPanel: cp})
									c := depthwiseOf(t, name, src)
									midRow = midRow || (c.jb < n && c.jb%ow != 0)
									label := fmt.Sprintf("%s cp%d", name, cp)
									assertBlockParityWant(t, label, src, want)
									assertGroupRequests(t, label, src, want, mult*n)
								}
							}
						}
					}
				}
			}
		}
	}
	if !midRow {
		t.Error("no column panel of the grid ends mid-row")
	}
	// Sums the order or the starting value would change: every product −0
	// (the oracle sums from +0, so does the stencil), and a 2⁶⁰ that a 1
	// added before its cancellation is lost to (ky-outer, kx-inner). Five
	// channels: one channel group and one remainder GEMM.
	const ch = 5
	fill := func(v float32, dims ...int) Source {
		t := tensor.New(dims...)
		for i := range t.Data() {
			t.Data()[i] = v
		}
		return AsSource(t)
	}
	order := tensor.New(ch, 1, 3, 3)
	for c := 0; c < ch; c++ {
		order.Set(1<<60, c, 0, 0, 0)
		order.Set(1, c, 0, 0, 1)
		order.Set(-1<<60, c, 0, 1, 0)
	}
	// A NaN weight, a different payload per channel, over a padded tap: its
	// stored zero makes every output of its channel NaN, which the channel
	// group hands back to the Go loops.
	nanW := tensor.New(ch, 1, 3, 3).Rand(411)
	for c := 0; c < ch; c++ {
		nanW.Set(math.Float32frombits(0x7fc00001+uint32(c)), c, 0, 0, 0)
	}
	nanX := randSource(412, 1, ch, 5, 6)
	for _, dil := range []int{1, 2} {
		for name, src := range map[string]Source{
			"negative zeros": virtualize(t, NewConv(ConvAttrs{Dilations: []int{dil}, Groups: ch}), fill(float32(math.Copysign(0, -1)), 1, ch, 5, 6), fill(0.5, ch, 1, 3, 3)),
			"order":          virtualize(t, NewConv(ConvAttrs{Dilations: []int{dil}, Groups: ch}), fill(1, 1, ch, 5, 6), AsSource(order)),
			"NaN over a pad": virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Dilations: []int{dil}, Groups: ch}), nanX, AsSource(nanW), randSource(413, ch)),
		} {
			depthwiseOf(t, name, src)
			want := loadAll(src)
			assertBlockParityWant(t, fmt.Sprintf("%s d%d", name, dil), src, want)
			assertGroupRequests(t, fmt.Sprintf("%s d%d", name, dil), src, want, src.Shape()[2:].NumElements())
		}
	}
}

// assertGroupRequests holds a depthwise conv of gemm outputs per GEMM to
// want over requests placed against its channel groups: from a group's
// first GEMM to inside the plane of its last, from inside a group to the
// end, and one whole group then half a plane of the next.
func assertGroupRequests(t *testing.T, name string, src Source, want []float32, gemm int) {
	t.Helper()
	blk, _ := AsBlock(src)
	total := len(want)
	for _, r := range [][2]int{
		{0, min(dwLanes*gemm-1, total)},
		{gemm, total - gemm},
		{0, min(dwLanes*gemm+gemm/2, total)},
	} {
		off, n := r[0], r[1]
		if n <= 0 {
			continue
		}
		got := make([]float32, n)
		blk.LoadBlock(got, off, n)
		for i, v := range got {
			if w := want[off+i]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s, request [%d,+%d): element %d = %v (%#08x), oracle says %v (%#08x)", name, off, n, off+i, v, math.Float32bits(v), w, math.Float32bits(w))
			}
		}
	}
}

// TestDepthwiseBandScratch: the depthwise band is the contraction's only
// input scratch — no panel, one row of accumulators — counted by
// ScratchBytes at 8 bytes an element
// and held to maxBandElems by narrowing the column panel (never under 8
// columns), while 1-D, 3-D and C/g > 1 convs keep the packed im2col path.
func TestDepthwiseBandScratch(t *testing.T) {
	src := virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 4}), randSource(391, 1, 4, 12, 10), randSource(392, 4, 1, 3, 3))
	ApplySchedule(src, Schedule{RowTile: 1, ColPanel: 64})
	c := depthwiseOf(t, "depthwise", src)
	// A 64-output panel from a row start spans 7 of the 10-wide output rows:
	// 9 band rows of 12 columns.
	if got := c.dw.bandElems(c.jb); got != 9*12 || len(c.band) < got {
		t.Errorf("band of %d floats (%d bound) at panel %d, want 108", got, len(c.band), c.jb)
	}
	if got, want := ScratchBytes(src), 8*int64(len(c.acc)+len(c.band)+len(c.wts)); got != want {
		t.Errorf("ScratchBytes = %d, want %d: the float64 accumulators, band and channel-group taps", got, want)
	}
	// Where the CPU runs depthwise4, the band interleaves a channel group:
	// four channels at every position, and the group's taps widened.
	g, taps := c.dw.group, 0
	if g > 1 {
		taps = g * 9
	}
	if len(c.band) != g*c.dw.bandElems(c.jb) || len(c.wts) != taps {
		t.Errorf("channel group of %d: band of %d floats and taps of %d at panel %d, want %d and %d", g, len(c.band), len(c.wts), c.jb, g*c.dw.bandElems(c.jb), taps)
	}
	// Depth multiplier 2 normalizes the row tile to 2, but the stencil sums
	// one output row at a time: one row of accumulators.
	mult := virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 4}), randSource(401, 1, 4, 12, 10), randSource(402, 8, 1, 3, 3))
	ApplySchedule(mult, Schedule{RowTile: 4, ColPanel: 1 << 10})
	if c := depthwiseOf(t, "M/g = 2", mult); c.rowTile != 2 || len(c.acc) != c.jb {
		t.Errorf("M/g = 2: %d accumulators at row tile %d, panel %d; want one row", len(c.acc), c.rowTile, c.jb)
	}
	// Rows whose band alone passes the cap: the panel narrows to part of a
	// row, and the band to the columns that part reads.
	wide := virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 2}), randSource(393, 1, 2, 4, 40000), randSource(394, 2, 1, 3, 3))
	ApplySchedule(wide, Schedule{RowTile: 1, ColPanel: 1 << 20})
	if c := depthwiseOf(t, "wide rows", wide); len(c.band) > maxBandElems || c.jb >= 40000 || c.jb < 8 {
		t.Errorf("wide rows: band of %d floats at panel %d, want at most %d floats at part of a row", len(c.band), c.jb, maxBandElems)
	}
	assertBlockParity(t, "wide rows", wide)
	for name, src := range map[string]Source{
		"1-D":     virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 4}), randSource(395, 1, 4, 9), randSource(396, 4, 1, 3)),
		"3-D":     virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 4}), randSource(397, 1, 4, 3, 4, 5), randSource(398, 4, 1, 3, 3, 3)),
		"C/g = 2": virtualize(t, NewConv(ConvAttrs{Pads: []int{1}, Groups: 2}), randSource(399, 1, 4, 6, 6), randSource(400, 2, 2, 3, 3)),
	} {
		walk(src, func(n Source) {
			if c, ok := n.(*contraction); ok && (c.dw != nil || c.im2col == nil) {
				t.Errorf("%s conv: depthwise %v, im2col %v, want the packed im2col path", name, c.dw != nil, c.im2col != nil)
			}
		})
	}
}
