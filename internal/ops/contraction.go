package ops

import (
	"math"

	"dnnfusion/internal/tensor"
)

// contraction is the one blocked contraction source: MatMul, Gemm, a fused
// contraction chain and Conv all compose it. Its output is a sequence of
// independent row-major GEMMs — one per index of batch: MatMul's broadcast
// batch dimensions, Conv's (image, group) pairs — each m × n, contracting
// k, and LoadBlock is the only walk from an output range to tiles and the
// only caller of mulTileAcc.
//
// Each operand reaches the tile loop in one of two ways, decided by what it
// is:
//
//   - A: strided memory read in place (flat, a view over flat or staged
//     memory), else — a lazy producer — pulled rowTile rows at a time into
//     an rt × k window (a.pull). The window has no element cap, is
//     remembered by its anchor so consecutive requests inside one row group
//     pull once, and is invalidated with the kernel's stages. A fused
//     contraction chain is nothing more than this: the intermediate — an
//     attention chain's softmax rows included — never exists outside the
//     window.
//   - B: memory with dense rows read in place (a weight matrix, a 1×1
//     Conv's input), else a k × jb panel packed once per column panel —
//     Conv's implicit im2col, or a strided gather of a column-strided B —
//     else, for a 2-D depthwise Conv, no panel at all: a float64 band of
//     the input rows a column panel reads — of four consecutive GEMMs'
//     planes at once, channel-interleaved, where a request covers such a
//     channel group — widened once, that the depthwise stencil (conv.go)
//     runs over in place of the tile loop. A lazy B is staged whole first,
//     because every row tile re-reads it.
//
// Where the CPU runs the SIMD tile, mulTileAcc widens the A rows of each
// tile — however they arrived — once more, into pa: a packed float64
// micro-panel of one row group and at most tileK of its k, which the
// assembly broadcasts from memory.
//
// Every accumulator sums in ascending-k float64 order and is rounded once,
// after the epilogue, so LoadBlock is bit-for-bit equal to the oracle's
// Load.
type contraction struct {
	// Source is the scalar oracle (matmulSource, convSource): Shape and Load.
	Source
	m, n, k  int
	batch    tensor.Shape
	batchBuf []int

	a, b operand
	// The one epilogue, alpha·acc + beta·c, applied to the float64
	// accumulator before its rounding: Gemm's tail, or Conv's bias (alpha =
	// beta = 1, c constant along a row). epi is false for a plain
	// contraction; c.src is nil when there is no addend.
	c           operand
	alpha, beta float64
	epi         bool

	// im2col packs Conv's B panels; nil when B is an operand's own memory.
	// packed is true whenever B reaches the tile loop through panel. dw
	// replaces both for a 2-D depthwise Conv: band holds the input rows of
	// one column panel, widened and zero-padded, of one GEMM or a channel
	// group, and wts a channel group's taps, widened and interleaved.
	im2col *im2col
	packed bool
	dw     *depthwise
	band   []float64
	wts    []float64

	// rowTile and jb are the normalized tile schedule; acc holds rowTile
	// accumulator rows of jb entries (one row under the depthwise stencil,
	// whole 4-row passes on the SIMD tile), panel is k × jb, and pa is the
	// SIMD tile's packed A: one row group's K-block, widened.
	rowTile int
	jb      int
	acc     []float64
	panel   []float32
	pa      []float64
}

// operand is a contraction operand: element (batch…, r, c) of the logical
// matrix — A as (i, k), B as (k, j), the addend as (i, j), transpose flags,
// views and broadcasts already folded in — lives at base + Σ batch_d·batch[d]
// + r·rs + c·cs of mem(). A head-split Q, a transposed K, a plain weight
// matrix and a Conv bias are the same operand with different strides. A
// pulled A has no memory of its own: its strides address the producer's
// flat space, which the window serves a row group at a time.
type operand struct {
	// src is the source tree walks continue through: the operand itself when
	// it is flat, else its stage or window.
	src    Source
	data   []float32
	stage  *Staged
	pull   *Staged
	base   int
	rs, cs int
	batch  []int
}

// mem returns the operand's backing memory, staging it first when lazy.
func (o *operand) mem() []float32 { return dense(o.data, o.stage) }

// offset returns the offset of the matrix at the (unravelled) batch index.
func (o *operand) offset(batchIdx []int) int {
	off := o.base
	for d, st := range o.batch {
		off += batchIdx[d] * st
	}
	return off
}

// denseOperand resolves s as dense row-major memory: its own when flat, a
// row window when it is lazy and pull is set, else a whole stage. ok is
// false when s would have to be staged and is past stageElemCap.
func denseOperand(s Source, pull bool) (operand, bool) {
	_, isFlat := FlatData(s)
	_, isStaged := s.(*Staged)
	if blk, isBlk := AsBlock(s); pull && isBlk && !isFlat && !isStaged {
		w := newRowStage(blk)
		return operand{src: w, pull: w}, true
	}
	data, stage, ok := denseOrStage(s)
	return operand{src: stagedOr(stage, s), data: data, stage: stage}, ok
}

// stridedOperand resolves s to memory and the layout its elements are read
// through: a view over flat or staged memory is read in place through its
// own strides, anything else is dense (denseOperand).
func stridedOperand(s Source, pull bool) (operand, layout, bool) {
	if v, isView := s.(*viewBlockSource); isView && (v.flat || v.stage != nil) {
		return operand{src: stagedOr(v.stage, s), data: v.data, stage: v.stage}, v.layout, true
	}
	op, ok := denseOperand(s, pull)
	return op, contiguousLayout(s.Shape()), ok
}

// matOperand reads s as the A or B operand of a batched matrix product. A
// lazy operand read transposed cannot arrive in row groups: like a
// transposing view it is staged whole.
func matOperand(s Source, trans bool, batch tensor.Shape, pull bool) (operand, bool) {
	op, l, ok := stridedOperand(s, pull && !trans)
	if !ok {
		return operand{}, false
	}
	r := len(l.shape)
	op.base, op.rs, op.cs = l.base, l.strides[r-2], l.strides[r-1]
	if trans {
		op.rs, op.cs = op.cs, op.rs
	}
	// Right-align the operand's batch dimensions against the output's: a
	// missing or size-1 dimension broadcasts (stride 0).
	op.batch = make([]int, batch.Rank())
	for d := range op.batch {
		if od := d - (batch.Rank() - (r - 2)); od >= 0 && l.shape[od] > 1 {
			op.batch[d] = l.strides[od]
		}
	}
	return op, true
}

// newContraction finishes a contraction whose dims, operands and epilogue
// are set, with scratch for the schedule a compiled kernel records for the
// same shape (ScheduleFor). ApplySchedule may replace it at bind time.
func newContraction(c *contraction) *contraction {
	c.batchBuf = make([]int, c.batch.Rank())
	c.packed = c.im2col != nil || c.b.cs != 1
	c.setSchedule(ScheduleFor(c.m, c.n))
	return c
}

// maxPanelElems bounds the packed panel, which unlike a B read in place is
// Source-owned scratch (per session, per lane): past 256 KiB it has left L2
// and a long-K conv (C3D: K = 13824) would pin megabytes per kernel. The
// depthwise band is held to the same 256 KiB.
const (
	maxPanelElems = 1 << 16
	maxBandElems  = maxPanelElems / 2
)

// setSchedule installs a tile schedule, normalizing it against the GEMM
// shape and sizing every scratch buffer to it exactly: a packed panel
// narrows to maxPanelElems and a depthwise band — a channel group's, four
// channels per position, where the CPU runs depthwise4 — to maxBandElems
// (never under Normalize's 8 columns), the A window and the accumulators
// hold one row group (the accumulators one row under the depthwise
// stencil). Where the CPU runs tile4x8, the accumulators hold whole 4-row
// passes and the packed A one row group's K-block (tileRows, tileK: at
// most 32 KiB). A schedule injected after construction may be shorter than
// the one built with, so every buffer is resized, not only grown.
func (s *contraction) setSchedule(sched Schedule) {
	sched = sched.Normalize(s.m, s.n)
	s.rowTile, s.jb = sched.RowTile, sched.ColPanel
	if s.packed {
		s.jb = min(s.jb, max(8, maxPanelElems/s.k))
		s.panel = resize(s.panel, s.k*s.jb)
	}
	accRows := s.rowTile
	if dw := s.dw; dw != nil {
		s.jb = min(s.jb, max(8, dw.maxCols(maxBandElems/dw.group)))
		s.band = resize(s.band, dw.group*dw.bandElems(s.jb))
		if dw.group > 1 {
			s.wts = resize(s.wts, dw.group*s.k)
		}
		accRows = 1 // the stencil sums one output row at a time
	} else if avx2FMA {
		accRows = tileRows(s.rowTile)
		s.pa = resize(s.pa, accRows*min(s.k, tileK))
	}
	s.acc = resize(s.acc, accRows*s.jb)
	if w := s.a.pull; w != nil {
		w.buf = resize(w.buf, s.rowTile*s.k)
		w.Invalidate()
	}
}

// resize returns buf when it holds exactly n elements, else a new buffer of
// n.
func resize[T any](buf []T, n int) []T {
	if len(buf) != n {
		return make([]T, n)
	}
	return buf
}

func (s *contraction) LoadBlock(dst []float32, off, n int) {
	aData, bData, cData := s.a.mem(), s.b.mem(), s.c.mem()
	mn := s.m * s.n
	group := 1
	if s.dw != nil {
		group = s.dw.group
	}
	for n > 0 {
		rem := off % mn
		i, jLo := rem/s.n, rem%s.n
		idx := s.batch.Unravel(off/mn, s.batchBuf)
		// One output row's remaining columns, or — at a row boundary — every
		// whole row of this GEMM the range covers, so a column panel is
		// prepared once for all of them; or a whole depthwise channel group,
		// when the range covers one from its first GEMM.
		rows, cols, gemms := 1, min(s.n-jLo, n), 1
		if jLo == 0 && n >= s.n {
			rows = min(n/s.n, s.m-i)
		}
		if group > 1 && rem == 0 && (off/mn)%group == 0 && n >= group*mn {
			gemms = group
		}
		a, a0 := aData, s.a.offset(idx)+i*s.a.rs
		if w := s.a.pull; w != nil {
			// A lazy A arrives one row group at a time, anchored at a
			// multiple of the row tile: the pass ends with the group, and a
			// later request for the same group finds it in the window.
			i0 := i - i%s.rowTile
			rows = min(rows, i0+s.rowTile-i)
			a = w.at(a0-(i-i0)*s.k, min(s.rowTile, s.m-i0)*s.k)
			a0 = (i - i0) * s.k
		}
		s.tiles(dst, a, a0, bData, s.b.offset(idx), cData, s.c.offset(idx)+i*s.c.rs, rows, jLo, cols, gemms)
		adv := gemms * rows * cols
		dst = dst[adv:]
		off += adv
		n -= adv
	}
}

// tiles fills dst (row stride cols) with columns [jLo, jLo+cols) of the rows
// output rows whose A rows start at a[a0]: column panel by column panel, and
// within one in rowTile-high tiles with the leftover rows on the next
// smaller tiles (heights are powers of two) over the same panel — or, for a
// depthwise Conv, output row by output row, each a stencil over the panel's
// band, of one GEMM or of gemms whole ones (a channel group, each GEMM's
// rows·cols outputs after the last's, the next batch indices after
// s.batchBuf).
func (s *contraction) tiles(dst, a []float32, a0 int, bData []float32, bBase int, cData []float32, cBase, rows, jLo, cols, gemms int) {
	if dw := s.dw; dw != nil {
		// Each GEMM's A rows, B plane and addends.
		taps, planes, adds := [dwLanes]int{a0}, [dwLanes]int{bBase}, [dwLanes]int{cBase}
		for l := 1; l < gemms; l++ {
			incIndex(s.batch, s.batchBuf)
			taps[l], planes[l], adds[l] = s.a.offset(s.batchBuf), s.b.offset(s.batchBuf), s.c.offset(s.batchBuf)
		}
		for j0 := jLo; j0 < jLo+cols; {
			w := dw.panel(j0, min(s.jb, jLo+cols-j0))
			dw.fill(s.band, bData, planes[:gemms], j0, w)
			for r := 0; r < rows; r++ {
				s.stencil(dst[r*cols+j0-jLo:], rows*cols, a, taps[:gemms], cData, adds[:gemms], r, j0, w)
			}
			j0 += w
		}
		return
	}
	for j0 := jLo; j0 < jLo+cols; j0 += s.jb {
		w := min(s.jb, jLo+cols-j0)
		b, b0, bRS, bLo := bData, bBase, s.b.rs, j0
		if s.packed {
			s.pack(bData, bBase, j0, w)
			b, b0, bRS, bLo = s.panel, 0, w, 0
		}
		for r, rt := 0, s.rowTile; r < rows; r += rt {
			for rt > rows-r {
				rt >>= 1
			}
			mulTileAcc(rt, a, a0+r*s.a.rs, s.a.rs, s.a.cs, s.k, b, b0, bRS, bLo, s.acc, w, s.pa)
			for t := 0; t < rt; t++ {
				s.finish(dst[(r+t)*cols+j0-jLo:], s.acc[t*w:][:w], cData, cBase+(r+t)*s.c.rs+j0*s.c.cs)
			}
		}
	}
}

// stencil writes outputs [j0, j0+w) of output row r of the GEMMs whose
// planes the last fill widened — one, or a channel group — to dst, each
// GEMM plane elements after the last: their A rows start at a[taps[l]], their
// addends at cData[adds[l]]. A channel group runs depthwise4 (simd), the
// bias added as finish adds it (alpha = beta = 1: acc·1 is acc, and −0 is
// the addend of no bias); a GEMM alone, or a group with a NaN accumulator,
// runs the Go loops and finish, GEMM by GEMM.
func (s *contraction) stencil(dst []float32, plane int, a []float32, taps []int, cData []float32, adds []int, r, j0, w int) {
	dw := s.dw
	if len(taps) == dwLanes {
		var bias [dwLanes]float64
		for l, a0 := range taps {
			for t, v := range a[a0+r*s.a.rs:][:s.k] {
				s.wts[t*dwLanes+l] = float64(v)
			}
			bias[l] = negZero
			if s.epi {
				bias[l] = float64(s.beta * float64(cData[adds[l]+r*s.c.rs]))
			}
		}
		if dw.simd(dst, plane, s.wts, &bias, s.band, j0, w) {
			return
		}
	}
	for l, a0 := range taps {
		dw.loops(s.acc[:w], a[a0+r*s.a.rs:][:s.k], s.band[l:], j0)
		s.finish(dst[l*plane:], s.acc[:w], cData, adds[l]+r*s.c.rs+j0*s.c.cs)
	}
}

// pack fills the k × w panel (row stride w) with columns [j0, j0+w) of the
// B matrix at bBase: Conv's im2col columns, or a gather of a column-strided
// B (a transposed operand), one column — contiguous when its rows are — at a
// time.
func (s *contraction) pack(bData []float32, bBase, j0, w int) {
	if s.im2col != nil {
		s.im2col.pack(s.panel, bData, bBase, j0, w)
		return
	}
	for t := 0; t < w; t++ {
		col := bBase + (j0+t)*s.b.cs
		for k := 0; k < s.k; k++ {
			s.panel[k*w+t] = bData[col+k*s.b.rs]
		}
	}
}

// finish rounds acc — the accumulators of one output row segment — into
// dst through the epilogue; cOff addresses the addend of its first element.
// The arithmetic is the oracle's (epilogue.apply: each product rounded, then
// the sum — the conversions keep a compiler from fusing them differently on
// the two paths), and an addend constant along the row is read once.
func (s *contraction) finish(dst []float32, acc []float64, cData []float32, cOff int) {
	dst = dst[:len(acc)]
	switch {
	case !s.epi:
		for t := finishSIMD(dst, acc, 1, negZero); t < len(acc); t++ {
			dst[t] = float32(acc[t])
		}
	case s.c.src == nil:
		for t, v := range acc {
			dst[t] = float32(v * s.alpha)
		}
	case s.c.cs == 0:
		c := float64(s.beta * float64(cData[cOff]))
		for t := finishSIMD(dst, acc, s.alpha, c); t < len(acc); t++ {
			dst[t] = float32(float64(acc[t]*s.alpha) + c)
		}
	default:
		for t, v := range acc {
			dst[t] = float32(float64(v*s.alpha) + float64(s.beta*float64(cData[cOff+t*s.c.cs])))
		}
	}
}

// negZero is −0, the addend that leaves every float64 as it is.
var negZero = math.Copysign(0, -1)

// finishSIMD rounds the whole 4-element groups of acc into dst as
// float32(float64(v·alpha) + c) through finishPD, where the CPU has AVX2,
// and returns how many leading elements it wrote. With alpha = 1 and c = −0
// that is float32(v) bit for bit: v·1 is v (a NaN only quieted, as the
// conversion quiets it), and v + −0 is v for every v, ±0 included. The last
// element of each slice is indexed first, so a short one is a Go bounds
// panic.
func finishSIMD(dst []float32, acc []float64, alpha, c float64) int {
	n := len(acc) &^ 3
	if !avx2FMA || n == 0 {
		return 0
	}
	_, _ = dst[n-1], acc[n-1]
	finishPD(&dst[0], &acc[0], n, alpha, c)
	return n
}
