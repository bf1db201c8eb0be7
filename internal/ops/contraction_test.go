package ops

import (
	"fmt"
	"math"
	"testing"

	"dnnfusion/internal/tensor"
)

// selectorGrid is the whole space the schedule selector ranks: 4 row tiles
// × 7 column panels.
func selectorGrid() []Schedule {
	var grid []Schedule
	for _, rt := range []int{1, 2, 4, 8} {
		for _, cp := range []int{8, 16, 32, 64, 128, 256, 512} {
			grid = append(grid, Schedule{RowTile: rt, ColPanel: cp})
		}
	}
	return grid
}

// assertDelivery holds one contraction to the oracle over the whole selector
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
	for _, sched := range selectorGrid() {
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
// selector's 28 schedules of assertDelivery.
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
// scratch, not M × K.
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
		ApplySchedule(src, Schedule{RowTile: 4, ColPanel: 8})
		if stages, floats, _ := scratch(src); stages != 1 || floats != 4*k {
			t.Errorf("%s over a %d-element lazy A binds %d stages of %d floats, want one 4 × K window (%d)", name, m*k, stages, floats, 4*k)
		}
		assertDelivery(t, name+" lazy A past the cap", mk, n, m*n)
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
