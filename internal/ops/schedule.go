package ops

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// Schedule is the tile schedule of a heavy kernel — the compile-time
// artifact the tuner selects per kernel shape and device (§4.3–4.4 pair
// fusion with tuned per-kernel schedules). It parameterizes the blocked
// fast paths that used to hard-code their blocking: the register row tile
// and L1 column panel of the one contraction micro-kernel (mulTileAcc),
// which MatMul, Gemm, the fused chain and Conv (as its per-group implicit
// GEMM) all run. The contraction (K) axis is never tiled: every output
// element accumulates over the full K range in ascending order, so any
// schedule stays bit-for-bit equal to the scalar oracle.
type Schedule struct {
	// RowTile is the register-tile height: how many output rows one tile
	// accumulates together, streaming each B row once per tile.
	RowTile int `json:"row_tile"`
	// ColPanel is the column-panel width in output columns: the slice of
	// B kept hot across all row tiles of a pass.
	ColPanel int `json:"col_panel"`
}

// Zero reports an unset schedule (no tuner ran for the kernel).
func (s Schedule) Zero() bool { return s == Schedule{} }

// String renders the schedule compactly for profiles and bench output:
// "rt4/cp128", or "default" for the zero schedule (the operators'
// built-in blocking).
func (s Schedule) String() string {
	if s.Zero() {
		return "default"
	}
	return fmt.Sprintf("rt%d/cp%d", s.RowTile, s.ColPanel)
}

// DefaultSchedule is the schedule the blocked paths assume when no tuner
// ran: the pre-schedule hard-coded blocking (4-row tiles, ~16KiB column
// panels of a K-row B panel), kept as the fallback so
// Virtualize-without-compile callers see unchanged behavior.
func DefaultSchedule(k int) Schedule {
	if k < 1 {
		k = 1
	}
	return Schedule{RowTile: 4, ColPanel: 4096 / k}
}

// Normalize is the one meaning of a schedule against an M×N output, shared
// by the kernels that execute it and the tuner that ranks it. The row tile
// rounds down to the tallest height mulTileAcc has a register-resident loop
// for (8, 4, 2, or 1) that also fits M — a tile taller than the whole
// output never engages. The column panel clamps to [8, N]: below 8 columns
// the panel loop's bookkeeping outweighs the locality, and a panel cannot
// be wider than the output.
func (s Schedule) Normalize(m, n int) Schedule {
	rt := 1
	for _, h := range [...]int{8, 4, 2} {
		if s.RowTile >= h && m >= h {
			rt = h
			break
		}
	}
	cp := s.ColPanel
	if cp < 8 {
		cp = 8
	}
	if cp > n {
		cp = n
	}
	return Schedule{RowTile: rt, ColPanel: cp}
}

// ApplySchedule walks a composed Source tree (through children, so beneath
// every source type) and configures every contraction (MatMul/Gemm, chain,
// Conv: one source type) with the kernel's selected schedule, resizing
// window, panel and accumulator scratch as needed, then aligns the staging
// stripes of the consumers above them to whole row tiles. It is called at
// bind time — once per session per lane — so the steady-state hot path still
// allocates nothing. A zero schedule leaves the contractions' default
// blocking in place; the consumers are aligned to it all the same.
func ApplySchedule(s Source, sched Schedule) {
	applySchedule(s, sched, sched)
}

// ApplyChainSchedule configures a chain-fused kernel's source tree with two
// schedules: cons tiles the chain's consumer contraction (and everything
// outside the chain), prod tiles the tree its A operand is pulled from — the
// chain's producer; its column panel doubles as the online softmax's
// key-panel (rescale) width. Everything else sees cons, exactly as
// ApplySchedule.
func ApplyChainSchedule(s Source, cons, prod Schedule) {
	if prod.Zero() {
		prod = cons
	}
	applySchedule(s, cons, prod)
}

func applySchedule(s Source, sched, chainProd Schedule) {
	if s == nil {
		return
	}
	// Operands first (a consumer aligns its staging to the tile span its
	// producer ends up with), through the one children walker, so a
	// contraction beneath any source type receives its schedule.
	kids := children(s)
	c, isContraction := s.(*contraction)
	if isContraction && c.a.pull != nil {
		// kids[0] is the tree A is pulled from — in a chain-fused kernel the
		// chain's producer: it runs the producer schedule.
		applySchedule(kids[0], chainProd, chainProd)
		kids = kids[1:]
	}
	for _, kid := range kids {
		applySchedule(kid, sched, chainProd)
	}
	if isContraction && !sched.Zero() {
		c.setSchedule(sched, chainProd)
	}
	switch v := s.(type) {
	case *pointwiseProgram:
		v.align()
	case *softmaxBlockSource:
		// Same alignment for row-wise softmax: stage whole producer row
		// tiles (the tile span is a multiple of the row length when the
		// producer is a matmul over the same innermost axis).
		d := v.axisDim
		if span := TileSpan(v.blk); span > 0 && span%d == 0 && span <= maxStripeElems {
			v.group = span / d
			if len(v.rowBuf) < span {
				v.rowBuf = make([]float32, span)
			}
		}
	}
}

// maxStripeElems bounds the per-input staging growth schedule alignment
// may request: past 64K elements (256 KiB) the stripe no longer lives in
// cache and the alignment would cost more than the tile path saves.
const maxStripeElems = 1 << 16

// TileSpan is the preferred parallel-chunk alignment of a source's output
// range, in elements: when the executor splits the output across worker
// lanes, chunks sized in multiples of the span start at row-tile
// boundaries, so no lane's chunk degrades the tiled path to single-row
// evaluation mid-tile. Zero means the source has no alignment preference.
func TileSpan(s Source) int {
	switch v := s.(type) {
	case *contraction:
		return v.rowTile * v.n
	case *viewBlockSource:
		// A reshape preserves flat order: the producer's alignment is the
		// view's alignment.
		if v.identity {
			return TileSpan(v.blk)
		}
	case *pointwiseProgram:
		// The program preserves flat order; its alignment is the heavy
		// producer's (recorded when the schedule was applied).
		return v.span
	case *softmaxBlockSource:
		if v.group > 1 {
			return v.group * v.axisDim
		}
	}
	return 0
}

// ScheduleTaskDims lowers a heavy operator to the GEMM-shape tuning task
// the schedule selector searches: M output rows × N output columns with a
// K-long contraction. Batched matmuls report per-matrix dims (the row tile
// works within one batch matrix); Conv reports its per-(image, group) GEMM:
// M/groups output channels × ΠS_out positions, contracting C/groups × the
// kernel volume. ok is false for operators whose blocked path has no tile
// loop to parameterize (Pool walks an odometer; Einsum and ConvTranspose
// pull from staged operands).
func ScheduleTaskDims(op Operator, in []tensor.Shape) (m, n, k int, ok bool) {
	switch v := op.(type) {
	case *matmul:
		if len(in) != 2 {
			return 0, 0, 0, false
		}
		_, mm, kk, nn, err := v.dims(in[0], in[1])
		if err != nil {
			return 0, 0, 0, false
		}
		return mm, nn, kk, true
	case *gemm:
		if len(in) < 2 {
			return 0, 0, 0, false
		}
		mm, kk, nn, err := v.dims(in)
		if err != nil {
			return 0, 0, 0, false
		}
		return mm, nn, kk, true
	case *conv:
		out, a, err := v.outShape(in)
		if err != nil {
			return 0, 0, 0, false
		}
		return out[1] / a.Groups, out[2:].NumElements(), in[1][1:].NumElements(), true
	}
	return 0, 0, 0, false
}

// mulTileAcc accumulates the rt×w output tile with corner (row a0/ai, col
// jLo) into acc (rt rows of w float64 accumulators, cleared here): K-outer,
// so each B row segment is loaded — and widened to float64 — once per tile
// rather than once per output row. Every accumulator still sums its
// products in ascending-k order, so the tile is bit-for-bit equal to rt
// independent scalar rows. The supported row-tile heights are specialized
// so the per-k A values live in registers.
func mulTileAcc(rt int, aData []float32, a0, ai, ak, kk int, bData []float32, bBase, bRS, jLo int, acc []float64, w int) {
	acc = acc[: rt*w : rt*w]
	for t := range acc {
		acc[t] = 0
	}
	switch rt {
	case 1:
		// Single rows are real traffic (a classifier over one sample, a
		// depthwise conv's M/g = 1): one accumulator row, no row loop.
		for k := 0; k < kk; k++ {
			av := float64(aData[a0+k*ak])
			base := bBase + k*bRS + jLo
			bRow := bData[base : base+w]
			acc := acc[:len(bRow)]
			for t, bv := range bRow {
				acc[t] += av * float64(bv)
			}
		}
	case 2:
		a1 := a0 + ai
		c0, c1 := acc[:w:w], acc[w:2*w:2*w]
		for k := 0; k < kk; k++ {
			ko := k * ak
			v0 := float64(aData[a0+ko])
			v1 := float64(aData[a1+ko])
			base := bBase + k*bRS + jLo
			bRow := bData[base : base+w]
			for t, bv := range bRow {
				b64 := float64(bv)
				c0[t] += v0 * b64
				c1[t] += v1 * b64
			}
		}
	case 4:
		a1, a2, a3 := a0+ai, a0+2*ai, a0+3*ai
		c0, c1, c2, c3 := acc[:w:w], acc[w:2*w:2*w], acc[2*w:3*w:3*w], acc[3*w:4*w:4*w]
		for k := 0; k < kk; k++ {
			ko := k * ak
			v0 := float64(aData[a0+ko])
			v1 := float64(aData[a1+ko])
			v2 := float64(aData[a2+ko])
			v3 := float64(aData[a3+ko])
			base := bBase + k*bRS + jLo
			bRow := bData[base : base+w]
			for t, bv := range bRow {
				b64 := float64(bv)
				c0[t] += v0 * b64
				c1[t] += v1 * b64
				c2[t] += v2 * b64
				c3[t] += v3 * b64
			}
		}
	case 8:
		a1, a2, a3 := a0+ai, a0+2*ai, a0+3*ai
		a4, a5, a6, a7 := a0+4*ai, a0+5*ai, a0+6*ai, a0+7*ai
		c0, c1, c2, c3 := acc[:w:w], acc[w:2*w:2*w], acc[2*w:3*w:3*w], acc[3*w:4*w:4*w]
		c4, c5, c6, c7 := acc[4*w:5*w:5*w], acc[5*w:6*w:6*w], acc[6*w:7*w:7*w], acc[7*w:8*w:8*w]
		for k := 0; k < kk; k++ {
			ko := k * ak
			v0 := float64(aData[a0+ko])
			v1 := float64(aData[a1+ko])
			v2 := float64(aData[a2+ko])
			v3 := float64(aData[a3+ko])
			v4 := float64(aData[a4+ko])
			v5 := float64(aData[a5+ko])
			v6 := float64(aData[a6+ko])
			v7 := float64(aData[a7+ko])
			base := bBase + k*bRS + jLo
			bRow := bData[base : base+w]
			for t, bv := range bRow {
				b64 := float64(bv)
				c0[t] += v0 * b64
				c1[t] += v1 * b64
				c2[t] += v2 * b64
				c3[t] += v3 * b64
				c4[t] += v4 * b64
				c5[t] += v5 * b64
				c6[t] += v6 * b64
				c7[t] += v7 * b64
			}
		}
	default:
		// Unspecialized heights (callers normalize, so this is a safety
		// net): per-row streaming, still ascending-k per accumulator.
		for k := 0; k < kk; k++ {
			ko := k * ak
			base := bBase + k*bRS + jLo
			bRow := bData[base : base+w]
			for r := 0; r < rt; r++ {
				av := float64(aData[a0+r*ai+ko])
				c := acc[r*w : r*w+w]
				for t, bv := range bRow {
					c[t] += av * float64(bv)
				}
			}
		}
	}
}
