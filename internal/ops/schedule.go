package ops

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// Schedule is the tile schedule of a heavy kernel (§4.3–4.4 pair fusion
// with per-kernel schedules): the register row tile and L1 column panel of
// the one contraction micro-kernel (mulTileAcc), which MatMul, Gemm, the
// fused chain and Conv (as its per-group implicit GEMM) all run. Compiled
// kernels record ScheduleFor of their task; ApplySchedule injects any
// other. The contraction (K) axis is never tiled: every output element
// accumulates over the full K range in ascending order, so any schedule
// stays bit-for-bit equal to the scalar oracle.
type Schedule struct {
	// RowTile is the register-tile height: how many output rows one tile
	// accumulates together, streaming each B row once per tile.
	RowTile int
	// ColPanel is the column-panel width in output columns: the slice of
	// B kept hot across all row tiles of a pass.
	ColPanel int
}

// Zero reports an unset schedule (a kernel with no contraction to tile).
func (s Schedule) Zero() bool { return s == Schedule{} }

// String renders the schedule compactly for profiles and bench output:
// "rt4/cp128", or "default" for the zero schedule.
func (s Schedule) String() string {
	if s.Zero() {
		return "default"
	}
	return fmt.Sprintf("rt%d/cp%d", s.RowTile, s.ColPanel)
}

// ScheduleFor is the one schedule rule: the tallest row tile that fits M
// (every height runs the SIMD tile, tile4x8) and a column panel of
// min(N, 512).
// It depends on the shape alone, never on a device profile. Taller tiles
// and a full-width panel beat every narrower choice measured on the zoo's
// large convs and M = 1 heads, and tie on transformer panels; a panel
// budgeted by K (65536/K) lost 1.3–2.6x.
func ScheduleFor(m, n int) Schedule {
	return Schedule{RowTile: 8, ColPanel: 512}.Normalize(m, n)
}

// Normalize is the one meaning of a schedule against an M×N output, shared
// by the kernels that execute it and ScheduleFor. The row tile
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
// Conv: one source type) with the kernel's schedule, resizing
// window, panel and accumulator scratch as needed, then aligns the staging
// stripes of the consumers above them to whole row tiles. It is called at
// bind time — once per session per lane — so the steady-state hot path still
// allocates nothing. A zero schedule leaves each contraction on ScheduleFor
// of its own shape; the consumers are aligned to it all the same.
func ApplySchedule(s Source, sched Schedule) {
	applySchedule(s, sched, sched)
}

// ApplyChainSchedule configures a chain-fused kernel's source tree with two
// schedules: cons tiles the chain's consumer contraction (and everything
// outside the chain), prod tiles the tree its A operand is pulled from — the
// chain's producer. Everything else sees cons, exactly as ApplySchedule.
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
		c.setSchedule(sched)
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
		if v.dw != nil && v.dw.group > 1 {
			// One depthwise channel group: a chunk that starts on one runs
			// its four GEMMs through depthwise4.
			return v.dw.group * v.m * v.n
		}
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

// ScheduleTaskDims lowers a heavy operator to the GEMM-shape task its
// schedule is derived from (ScheduleFor(M, N)): M output rows × N output
// columns with a K-long contraction. Batched matmuls report per-matrix
// dims (the row tile works within one batch matrix); Conv reports its
// per-(image, group) GEMM:
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

// tileK is the SIMD tile's K-block: a row group's packed A holds at most
// tileRows(rt)·tileK float64 (32 KiB at 8 rows), and a longer contraction
// runs the tile once per K-block, each block resuming from the sums the
// last one stored.
const tileK = 512

// tileRows is the rows a tile of rt rows occupies on the SIMD tile, in its
// packed A and its accumulators: whole 4-row passes.
func tileRows(rt int) int { return max(rt, 4) }

// SIMDRowTile reports that mulTileAcc runs row tiles rt high on the SIMD
// tile, where the CPU has one: every height Normalize gives, 1 and 2 as one
// 4-row pass.
func SIMDRowTile(rt int) bool { return rt == 1 || rt == 2 || rt == 4 || rt == 8 }

// mulTileAcc accumulates the rt×w output tile with corner (row a0/ai, col
// jLo) into acc (rows of w float64 accumulators, cleared here): K-outer,
// so each B row segment is loaded — and widened to float64 — once per tile
// rather than once per output row. Every accumulator still sums its
// products in ascending-k order, so the tile is bit-for-bit equal to rt
// independent scalar rows.
//
// Where the CPU has AVX2 and FMA (avx2FMA), the whole 8-column strips of
// every tile run tile4x8, the assembly tile, K-block by K-block: packA
// first widens the block of A once into pa, a packed float64 micro-panel
// the tile broadcasts from memory. A 1- or 2-row tile runs as one 4-row
// pass whose missing rows repeat its last row, their accumulators left in
// acc's rows rt…3 and never read, so there acc holds tileRows(rt) rows and
// pa tileRows(rt)·min(kk, tileK) floats. The column remainder runs
// mulTileGo. The result is the same bit for bit: every operand is a widened
// float32, so each product is exact in float64 (24 + 24 ≤ 53 significand
// bits) and the fused multiply-add rounds once, where acc += a*b rounds;
// a K-block's sums are stored and reloaded as they are. Only which NaN
// propagates can differ (the FMA prefers the accumulator's, acc += a*b the
// product's), so a tile that ends a K-block with a NaN accumulator is
// redone by the Go loops.
func mulTileAcc(rt int, aData []float32, a0, ai, ak, kk int, bData []float32, bBase, bRS, jLo int, acc []float64, w int, pa []float64) {
	lo := 0
	if avx2FMA && SIMDRowTile(rt) && kk > 0 && bRS >= 0 {
		if lo = w &^ 7; lo > 0 {
			rows := tileRows(rt)
			// The assembly reads B at bBase + k·bRS + jLo + j (k < kk,
			// j < lo) and the rows·kb floats of p, and writes acc[r·w + j]
			// (r < rows). With a nonnegative stride the first and last of
			// each bound all the others: touching them makes a bad index a
			// bounds panic here.
			_, _ = bData[bBase+(kk-1)*bRS+jLo+lo-1], acc[rows*w-1]
			for k0 := 0; k0 < kk; k0 += tileK {
				kb := min(tileK, kk-k0)
				p := pa[:rows*kb]
				packA(p, rt, aData, a0+k0*ak, ai, ak, kb)
				if tile4x8(&p[0], kb, &bData[bBase+k0*bRS+jLo], bRS, &acc[0], w, lo/8, rows/4, k0 == 0) {
					lo = 0
					break
				}
			}
		}
	}
	mulTileGo(rt, aData, a0, ai, ak, kk, bData, bBase, bRS, jLo, acc, w, lo)
}

// packA widens the kb-long rows [0, rt) of A, row r at aData[a0 + r·ai]
// with k stride ak, into tile4x8's micro-panel pa: 4-row pass by pass,
// k-major, element (r, k) of a pass at 4k + r, a row past rt repeating row
// rt−1 (so a padded row is NaN only where a real one is). Rows contiguous
// along k widen through interleaveSIMD; the k mod 4 tail and a
// column-strided A run the Go loop.
func packA(pa []float64, rt int, aData []float32, a0, ai, ak, kb int) {
	for p := 0; 4*p < rt; p++ {
		dst := pa[4*p*kb:][:4*kb]
		var at [4]int
		for r := range at {
			at[r] = a0 + min(4*p+r, rt-1)*ai
		}
		t := 0
		if ak == 1 {
			t = interleaveSIMD(dst, aData[at[0]:][:kb], aData[at[1]:][:kb], aData[at[2]:][:kb], aData[at[3]:][:kb])
		}
		for ; t < kb; t++ {
			q, k := dst[4*t:][:4], t*ak
			q[0], q[1], q[2], q[3] = float64(aData[at[0]+k]), float64(aData[at[1]+k]), float64(aData[at[2]+k]), float64(aData[at[3]+k])
		}
	}
}

// mulTileGo is mulTileAcc's Go loops, over columns [lo, w) of the tile's rt
// rows: each supported row-tile height is specialized so the per-k A values
// live in registers.
func mulTileGo(rt int, aData []float32, a0, ai, ak, kk int, bData []float32, bBase, bRS, jLo int, acc []float64, w, lo int) {
	if lo == w {
		return
	}
	acc = acc[: rt*w : rt*w]
	for r := 0; r < rt; r++ {
		clear(acc[r*w+lo : r*w+w])
	}
	switch rt {
	case 1:
		// Single rows are real traffic (an M = 1 MatMul: a classifier over
		// one sample): one accumulator row, no row loop. Depthwise convs do
		// not come here; they run the depthwise stencil (conv.go).
		c0 := acc[lo:w:w]
		for k := 0; k < kk; k++ {
			av := float64(aData[a0+k*ak])
			base := bBase + k*bRS + jLo
			bRow := bData[base+lo : base+w]
			c0 := c0[:len(bRow)]
			for t, bv := range bRow {
				c0[t] += av * float64(bv)
			}
		}
	case 2:
		a1 := a0 + ai
		c0, c1 := acc[lo:w:w], acc[w+lo:2*w:2*w]
		for k := 0; k < kk; k++ {
			ko := k * ak
			v0 := float64(aData[a0+ko])
			v1 := float64(aData[a1+ko])
			base := bBase + k*bRS + jLo
			bRow := bData[base+lo : base+w]
			for t, bv := range bRow {
				b64 := float64(bv)
				c0[t] += v0 * b64
				c1[t] += v1 * b64
			}
		}
	case 4:
		a1, a2, a3 := a0+ai, a0+2*ai, a0+3*ai
		c0, c1, c2, c3 := acc[lo:w:w], acc[w+lo:2*w:2*w], acc[2*w+lo:3*w:3*w], acc[3*w+lo:4*w:4*w]
		for k := 0; k < kk; k++ {
			ko := k * ak
			v0 := float64(aData[a0+ko])
			v1 := float64(aData[a1+ko])
			v2 := float64(aData[a2+ko])
			v3 := float64(aData[a3+ko])
			base := bBase + k*bRS + jLo
			bRow := bData[base+lo : base+w]
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
		c0, c1, c2, c3 := acc[lo:w:w], acc[w+lo:2*w:2*w], acc[2*w+lo:3*w:3*w], acc[3*w+lo:4*w:4*w]
		c4, c5, c6, c7 := acc[4*w+lo:5*w:5*w], acc[5*w+lo:6*w:6*w], acc[6*w+lo:7*w:7*w], acc[7*w+lo:8*w:8*w]
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
			bRow := bData[base+lo : base+w]
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
		panic(fmt.Sprintf("ops: mulTileAcc row tile %d (Normalize gives 1, 2, 4 or 8)", rt))
	}
}
