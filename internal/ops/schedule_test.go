package ops

import (
	"testing"

	"dnnfusion/internal/tensor"
)

// Schedule parity suite: every schedule ApplySchedule can inject — and a
// few that normalize — must leave LoadBlock bit-identical to the scalar Load
// oracle on every heavy source, including heavy producers nested under
// fused elementwise chains and row-wise softmax (whose staging stripes the
// schedule realigns). The grid deliberately includes unsupported row-tile
// heights (normalized down) and panels wider than N (clamped).

// scheduleGrid is the test matrix of schedules.
var scheduleGrid = []Schedule{
	{RowTile: 1, ColPanel: 8},
	{RowTile: 2, ColPanel: 16},
	{RowTile: 3, ColPanel: 33}, // normalizes to height 2
	{RowTile: 4, ColPanel: 64},
	{RowTile: 8, ColPanel: 512},
	{RowTile: 16, ColPanel: 4}, // height rounds to 8, panel to 8
}

// assertScheduleGridParity applies every schedule in the grid to a fresh
// copy of the source (built by mk) and checks block↔scalar parity.
func assertScheduleGridParity(t *testing.T, name string, mk func() Source) {
	t.Helper()
	for _, sched := range scheduleGrid {
		src := mk()
		ApplySchedule(src, sched)
		assertBlockParity(t, name, src)
	}
}

func TestScheduleGridParityMatMul(t *testing.T) {
	b := randSource(61, 12, 9)
	assertScheduleGridParity(t, "MatMul 17x12", func() Source {
		return virtualize(t, NewMatMul(), randSource(60, 17, 12), b)
	})
	assertScheduleGridParity(t, "MatMul 16x12 exact tiles", func() Source {
		return virtualize(t, NewMatMul(), randSource(62, 16, 12), b)
	})
	assertScheduleGridParity(t, "MatMul transA", func() Source {
		return virtualize(t, NewMatMulT(true, false), randSource(63, 12, 17), b)
	})
	assertScheduleGridParity(t, "MatMul transB", func() Source {
		return virtualize(t, NewMatMulT(false, true), randSource(64, 17, 12), randSource(65, 9, 12))
	})
	assertScheduleGridParity(t, "MatMul batched broadcast", func() Source {
		return virtualize(t, NewMatMul(), randSource(66, 2, 1, 9, 12), randSource(67, 3, 12, 9))
	})
	assertScheduleGridParity(t, "MatMul staged A", func() Source {
		return virtualize(t, NewMatMul(),
			virtualize(t, NewRelu(), randSource(68, 17, 12)), b)
	})
}

func TestScheduleGridParityGemm(t *testing.T) {
	a := randSource(70, 18, 7)
	b := randSource(71, 7, 11)
	c := randSource(72, 11)
	// Every C broadcast form against the [18, 11] result, with alpha ≠ 1
	// and beta ∉ {0, 1}; the grid's 8-wide panels are narrower than N = 11.
	for _, cDims := range [][]int{{11}, {18, 1}, {1}, {}, {18, 11}} {
		cc := randSource(75, cDims...)
		assertScheduleGridParity(t, "Gemm C broadcast", func() Source {
			return virtualize(t, NewGemm(0.75, -1.25, false, false), a, b, cc)
		})
		assertScheduleGridParity(t, "Gemm C broadcast transA+transB", func() Source {
			return virtualize(t, NewGemm(0.75, -1.25, true, true), randSource(76, 7, 18), randSource(77, 11, 7), cc)
		})
	}
	assertScheduleGridParity(t, "Gemm alpha/beta/C", func() Source {
		return virtualize(t, NewGemm(1.5, 0.5, false, false), a, b, c)
	})
	assertScheduleGridParity(t, "Gemm no C", func() Source {
		return virtualize(t, NewGemm(2, 0, false, false), a, b)
	})
	assertScheduleGridParity(t, "Gemm transA", func() Source {
		return virtualize(t, NewGemm(1, 1, true, false), randSource(73, 7, 18), b)
	})
	assertScheduleGridParity(t, "Gemm transB", func() Source {
		return virtualize(t, NewGemm(1, 1, false, true), a, randSource(74, 11, 7), c)
	})
	assertScheduleGridParity(t, "Gemm staged", func() Source {
		return virtualize(t, NewGemm(1, 1, false, false), virtualize(t, NewSigmoid(), a), b, c)
	})
	// Gemm → Relu → Gemm streams as an exact chain: the producer's rows and
	// the consumer's accumulators both finish through their epilogues, and
	// the [18, 11] intermediate exists only as a row window.
	assertScheduleGridParity(t, "Gemm chain", func() Source {
		h := virtualize(t, NewRelu(), virtualize(t, NewGemm(0.75, -1.25, false, false), a, b, c))
		chain := virtualize(t, NewGemm(1.5, 0.5, false, false), h, randSource(78, 11, 5), randSource(79, 18, 1))
		if stages, floats, _ := scratch(chain); stages != 1 || floats != 8*11 {
			t.Fatalf("Gemm over a Gemm-rooted A operand holds %d stages of %d floats, want one 8 × 11 window", stages, floats)
		}
		return chain
	})
}

func TestScheduleGridParityFusedConsumers(t *testing.T) {
	// The schedule-sensitive cases: a heavy producer pulled through a
	// fused elementwise chain's staging stripes, and through row-wise
	// softmax's row staging — the paths ApplySchedule re-aligns.
	w := randSource(81, 12, 20)
	bias := randSource(82, 20)
	assertScheduleGridParity(t, "relu(matmul+bias) chain", func() Source {
		mm := virtualize(t, NewMatMul(), randSource(80, 25, 12), w)
		return virtualize(t, NewRelu(), virtualize(t, NewAdd(), mm, bias))
	})
	assertScheduleGridParity(t, "softmax over matmul", func() Source {
		mm := virtualize(t, NewMatMul(), randSource(83, 25, 12), w)
		return virtualize(t, NewSoftmax(-1), mm)
	})
	assertScheduleGridParity(t, "reshape over matmul", func() Source {
		mm := virtualize(t, NewMatMul(), randSource(84, 25, 12), w)
		return virtualize(t, NewReshape(25*20), mm)
	})
	// The MobileNet tail: an imported BatchNorm (per-channel Mul + Add) and
	// ReLU6 stage whole row tiles of the conv beneath.
	assertScheduleGridParity(t, "BN+Clip over Conv", func() Source {
		c := virtualize(t, NewConv(ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}}),
			randSource(85, 2, 4, 9, 9), randSource(86, 10, 4, 3, 3))
		bn := virtualize(t, NewAdd(), virtualize(t, NewMul(), c, randSource(87, 10, 1, 1)), randSource(88, 10, 1, 1))
		return virtualize(t, NewClip(0, 6), bn)
	})
}

// TestScheduleGridParityConv: Conv runs the same tile loop as MatMul, so it
// is held to every row tile × 7 panels from 8 to 512 on top of the
// normalizing grid, across every panel-packing shape.
func TestScheduleGridParityConv(t *testing.T) {
	grid := append([]Schedule(nil), scheduleGrid...)
	for _, rt := range []int{1, 2, 4, 8} {
		for _, cp := range []int{8, 16, 32, 64, 128, 256, 512} {
			grid = append(grid, Schedule{RowTile: rt, ColPanel: cp})
		}
	}
	x := randSource(90, 2, 4, 9, 9)
	for name, mk := range map[string]func() Source{
		"strided padded bias": func() Source {
			return virtualize(t, NewConv(ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}}), x, randSource(91, 6, 4, 3, 3), randSource(92, 6))
		},
		"grouped 9 rows": func() Source {
			return virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}, Groups: 2}), x, randSource(93, 18, 2, 3, 3))
		},
		"depthwise": func() Source {
			return virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}, Groups: 4}), x, randSource(94, 4, 1, 3, 3))
		},
		"1x1 in place": func() Source {
			return virtualize(t, NewConv(ConvAttrs{}), x, randSource(95, 10, 4, 1, 1), randSource(96, 10))
		},
		"staged x": func() Source {
			return virtualize(t, NewConv(ConvAttrs{Dilations: []int{2, 2}}), virtualize(t, NewRelu(), x), randSource(97, 8, 4, 3, 3))
		},
		// K = 200 × 400 positions: the widest panels pass maxPanelElems.
		"long K": func() Source {
			return virtualize(t, NewConv(ConvAttrs{}), randSource(98, 1, 8, 24, 24), randSource(99, 4, 8, 5, 5))
		},
	} {
		for _, sched := range grid {
			src := mk()
			ApplySchedule(src, sched)
			if _, _, panel := scratch(src); panel > maxPanelElems {
				t.Errorf("%s %v: panel of %d floats, want at most %d", name, sched, panel, maxPanelElems)
			}
			assertBlockParity(t, name+" "+sched.String(), src)
		}
	}
}

// TestScheduleGridIgnoredByPool: Pool has no tile loop, so ApplySchedule
// leaves it (and its lane alignment) untouched.
func TestScheduleGridIgnoredByPool(t *testing.T) {
	mk := func() Source {
		return virtualize(t, NewMaxPool(PoolAttrs{Kernel: []int{3, 3}, Strides: []int{2, 2}, Pads: []int{1, 1}}), randSource(90, 2, 4, 9, 9))
	}
	assertScheduleGridParity(t, "MaxPool", mk)
	src := mk()
	ApplySchedule(src, Schedule{RowTile: 8, ColPanel: 64})
	if got := TileSpan(src); got != 0 {
		t.Errorf("MaxPool TileSpan = %d after ApplySchedule, want 0 (no alignment preference)", got)
	}
}

func TestScheduleNormalization(t *testing.T) {
	for rt, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 64: 8} {
		if got := (Schedule{RowTile: rt}).Normalize(100, 100).RowTile; got != want {
			t.Errorf("Normalize row tile %d = %d, want %d", rt, got, want)
		}
	}
	// A tile taller than the output falls to the tallest height that fits.
	for m, want := range map[int]int{1: 1, 3: 2, 5: 4, 8: 8} {
		if got := (Schedule{RowTile: 8}).Normalize(m, 100).RowTile; got != want {
			t.Errorf("Normalize row tile 8 against M=%d = %d, want %d", m, got, want)
		}
	}
	for _, c := range []struct{ cp, n, want int }{{4, 100, 8}, {512, 96, 96}, {64, 4, 4}} {
		if got := (Schedule{ColPanel: c.cp}).Normalize(100, c.n).ColPanel; got != c.want {
			t.Errorf("Normalize panel %d against N=%d = %d, want %d", c.cp, c.n, got, c.want)
		}
	}
}

// TestTileSpanAlignment pins the lane-splitting contract: after a schedule
// is applied, TileSpan is a whole number of output rows times the row
// tile, and it propagates through order-preserving wrappers (elementwise
// chains, reorganize views).
func TestTileSpanAlignment(t *testing.T) {
	mm := virtualize(t, NewMatMul(), randSource(100, 16, 12), randSource(101, 12, 20))
	ApplySchedule(mm, Schedule{RowTile: 4, ColPanel: 16})
	if got := TileSpan(mm); got != 4*20 {
		t.Errorf("matmul TileSpan = %d, want %d", got, 4*20)
	}
	chain := virtualize(t, NewRelu(), virtualize(t, NewAdd(),
		virtualize(t, NewMatMul(), randSource(102, 16, 12), randSource(103, 12, 20)),
		randSource(104, 20)))
	ApplySchedule(chain, Schedule{RowTile: 8, ColPanel: 16})
	if got := TileSpan(chain); got != 8*20 {
		t.Errorf("chain TileSpan = %d, want %d", got, 8*20)
	}
	soft := virtualize(t, NewSoftmax(-1),
		virtualize(t, NewMatMul(), randSource(105, 16, 12), randSource(106, 12, 20)))
	ApplySchedule(soft, Schedule{RowTile: 2, ColPanel: 16})
	if got := TileSpan(soft); got != 2*20 {
		t.Errorf("softmax TileSpan = %d, want %d", got, 2*20)
	}
	// Conv: the row tile works within one group's M/g = 6 output channels,
	// each a row of P = 5·5 positions; a fused tail inherits the span and
	// stages whole tiles.
	mkConv := func() Source {
		return virtualize(t, NewConv(ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}, Groups: 2}),
			randSource(107, 2, 4, 9, 9), randSource(108, 12, 2, 3, 3))
	}
	cv := mkConv()
	ApplySchedule(cv, Schedule{RowTile: 8, ColPanel: 16})
	if got := TileSpan(cv); got != 4*25 {
		t.Errorf("conv TileSpan = %d, want %d (row tile 8 normalizes to 4 of 6 rows)", got, 4*25)
	}
	// Alignment does not wait for a schedule: under the zero schedule the
	// conv keeps ScheduleFor of its shape and the tail above still stages
	// whole tiles of it instead of 512-element slivers.
	tail := virtualize(t, NewRelu(), mkConv()).(*pointwiseProgram)
	ApplySchedule(tail, Schedule{})
	if span := TileSpan(tail); span != 4*25 || tail.stripe%span != 0 {
		t.Errorf("unscheduled conv tail: TileSpan = %d, stripe = %d, want span %d and a stripe of whole tiles", span, tail.stripe, 4*25)
	}
}

// TestScheduleTaskDims pins the GEMM-shape lowering schedules derive from.
func TestScheduleTaskDims(t *testing.T) {
	m, n, k, ok := ScheduleTaskDims(NewMatMul(), []tensor.Shape{tensor.Of(3, 17, 12), tensor.Of(12, 9)})
	if !ok || m != 17 || n != 9 || k != 12 {
		t.Errorf("matmul task = %d,%d,%d,%v", m, n, k, ok)
	}
	m, n, k, ok = ScheduleTaskDims(NewGemm(1, 1, true, false), []tensor.Shape{tensor.Of(12, 17), tensor.Of(12, 9)})
	if !ok || m != 17 || n != 9 || k != 12 {
		t.Errorf("gemm task = %d,%d,%d,%v", m, n, k, ok)
	}
	// Conv is its per-(image, group) GEMM: M/g channels × ΠS_out positions,
	// contracting C/g × the kernel volume; the batch does not enter.
	m, n, k, ok = ScheduleTaskDims(NewConv(ConvAttrs{Strides: []int{2, 2}, Pads: []int{1, 1}, Groups: 2}),
		[]tensor.Shape{tensor.Of(2, 4, 9, 9), tensor.Of(6, 2, 3, 3), tensor.Of(6)})
	if !ok || m != 3 || n != 25 || k != 18 {
		t.Errorf("conv task = %d,%d,%d,%v, want 3,25,18", m, n, k, ok)
	}
	m, n, k, ok = ScheduleTaskDims(NewConv(ConvAttrs{Groups: 4}), []tensor.Shape{tensor.Of(1, 4, 6, 5, 5), tensor.Of(4, 1, 3, 3, 3)})
	if !ok || m != 1 || n != 4*3*3 || k != 27 {
		t.Errorf("depthwise 3-D conv task = %d,%d,%d,%v, want 1,36,27", m, n, k, ok)
	}
	if _, _, _, ok := ScheduleTaskDims(NewConvTranspose(ConvAttrs{}), []tensor.Shape{tensor.Of(1, 4, 5, 5), tensor.Of(4, 3, 2, 2)}); ok {
		t.Error("ConvTranspose pulls from staged operands and should not report a schedulable task")
	}
	if _, _, _, ok := ScheduleTaskDims(NewMaxPool(PoolAttrs{Kernel: []int{3, 3}}),
		[]tensor.Shape{tensor.Of(2, 4, 9, 9)}); ok {
		t.Error("pool has no tile loop and should not report a schedulable task")
	}
	if _, _, _, ok := ScheduleTaskDims(NewEinsum("ab,bc->ac"), []tensor.Shape{tensor.Of(4, 5), tensor.Of(5, 6)}); ok {
		t.Error("einsum should not report a schedulable task")
	}
	if _, _, _, ok := ScheduleTaskDims(NewRelu(), []tensor.Shape{tensor.Of(4, 5)}); ok {
		t.Error("light operators should not report a schedulable task")
	}
}

// TestScheduleReachesEveryMatMul: ApplySchedule, StagedSources and
// ScalarPaths share one children walker, so a schedule applied at the root
// reaches a contraction beneath any source type. (ApplySchedule used to be
// one of three parallel type switches with no arm for movement or
// reduction sources: a matmul under a Transpose or Reduce kept the default
// tile and was chunked as if it staged nothing.)
func TestScheduleReachesEveryMatMul(t *testing.T) {
	// Both fields differ from ScheduleFor(16, 20), the contraction's own
	// rt8/cp20, so an unreached matmul shows.
	sched := Schedule{RowTile: 2, ColPanel: 16}
	mk := func() Source {
		return virtualize(t, NewAdd(),
			virtualize(t, NewMatMul(), randSource(120, 16, 12), randSource(121, 12, 20)), randSource(122, 20))
	}
	rowStat := func(s Source) Source { return virtualize(t, NewReduce(ReduceMean, true, 1), s) }
	for name, wrap := range map[string]func(Source) Source{
		"Transpose": func(s Source) Source { return virtualize(t, NewTranspose(1, 0), s) },
		"head split": func(s Source) Source {
			return virtualize(t, NewTranspose(1, 0, 2), virtualize(t, NewReshape(16, 4, 5), s))
		},
		"Reduce":        rowStat,
		"Reduce middle": func(s Source) Source { return virtualize(t, NewReduce(ReduceSum, false, 0), s) },
		"Softmax":       func(s Source) Source { return virtualize(t, NewSoftmax(-1), s) },
		"Softmax axis0": func(s Source) Source { return virtualize(t, NewSoftmax(0), s) },
		"row broadcast": func(s Source) Source { return virtualize(t, NewSub(), randSource(123, 16, 20), rowStat(s)) },
		"Gather": func(s Source) Source {
			return virtualize(t, NewGather(0), s, AsSource(tensor.FromSlice([]float32{3, 1}, 2)))
		},
	} {
		src := wrap(mk())
		ApplySchedule(src, sched)
		found := 0
		walk(src, func(n Source) {
			if mm, ok := n.(*contraction); ok {
				found++
				if mm.rowTile != 2 || mm.jb != 16 {
					t.Errorf("%s: matmul beneath runs rt%d/cp%d, want the applied rt2/cp16", name, mm.rowTile, mm.jb)
				}
			}
		})
		if found != 1 {
			t.Errorf("%s: walk found %d matmuls, want 1", name, found)
		}
		assertBlockParity(t, name+" (scheduled)", src)
	}
}
