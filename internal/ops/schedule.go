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

// ScheduleFor is the one schedule rule: a row tile of min(8, M) (every
// height runs the SIMD tile, tile8x16 or tile4x8) and a column panel of
// min(N, 512).
// It depends on the shape alone, never on a device profile. Taller tiles
// and a full-width panel beat every narrower choice measured on the zoo's
// large convs and M = 1 heads, and tie on transformer panels; a panel
// budgeted by K (65536/K) lost 1.3–2.6x.
func ScheduleFor(m, n int) Schedule {
	return Schedule{RowTile: 8, ColPanel: 512}.Normalize(m, n)
}

// Normalize is the one meaning of a schedule against an M×N output, shared
// by the kernels that execute it and ScheduleFor. The row tile clamps to
// [1, min(8, M)]: every height runs mulTileAcc's tile, and a tile taller
// than the whole output never engages. The column panel clamps to [8, N]:
// below 8 columns the panel loop's bookkeeping outweighs the locality, and
// a panel cannot be wider than the output.
func (s Schedule) Normalize(m, n int) Schedule {
	return Schedule{RowTile: max(1, min(s.RowTile, 8, m)), ColPanel: min(max(s.ColPanel, 8), n)}
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
func tileRows(rt int) int { return (rt + 3) &^ 3 }

// tileSide is the columns of tile4x8's remainder strip, whose
// accumulators follow acc's rows: 8 where tile4x8 is the tile, 0 where
// tile8x16 runs every width under an opmask or the Go loops run alone.
func tileSide() int {
	if avx2FMA && !avx512 {
		return 8
	}
	return 0
}

// mulTileAcc accumulates the rt×w output tile with corner (row a0/ai, col
// jLo) into acc (rows of w float64 accumulators, cleared here). Every
// accumulator sums its products in ascending-k order, so the tile is
// bit-for-bit equal to rt independent scalar rows.
//
// Where the CPU has AVX2 and FMA (avx2FMA), the tile runs as assembly,
// K-outer and K-block by K-block, so each B row segment is loaded and
// widened once per pass: packA first widens the block of A once into pa, a
// packed float64 micro-panel the tile broadcasts from memory. A tile of rt
// rows occupies tileRows(rt) rows; the missing rows repeat row rt−1, their
// accumulators left in acc's rows rt…tileRows(rt)−1 and never read.
//
//   - With AVX-512F (avx512), tile8x16 runs every width in one pass of
//     4 or 8 rows per 16-column strip, the last w mod 16 columns under an
//     opmask. acc holds tileRows(rt)·w floats.
//   - Else tile4x8 runs every tile at least 8 columns wide, as ⌈rt/4⌉
//     4-row passes per whole 8-column strip; a column remainder runs as one
//     more strip over the last 8 columns, summed into the
//     tileSide()·tileRows(rt) accumulators past acc's rows and its new
//     columns copied back, so acc holds tileRows(rt)·(w+tileSide())
//     floats. A tile under 8 columns runs mulTileGo.
//
// pa holds tileRows(rt)·min(kk, tileK) floats. The result is the same bit
// for bit: every operand is a widened float32, so each product is exact in
// float64 (24 + 24 ≤ 53 significand bits) and the fused multiply-add rounds
// once, where acc += a*b rounds; a K-block's sums are stored and reloaded
// as they are. Only which NaN propagates can differ (the FMA prefers the
// accumulator's, acc += a*b the product's), so a tile that ends a K-block
// with a NaN accumulator is redone by the Go loop.
func mulTileAcc(rt int, aData []float32, a0, ai, ak, kk int, bData []float32, bBase, bRS, jLo int, acc []float64, w int, pa []float64) {
	lo := 0
	if avx512 && kk > 0 && bRS >= 0 {
		rows := tileRows(rt)
		// The assembly reads B at bBase + k·bRS + jLo + j (k < kk, j < w)
		// and the rows·kb floats of p, and writes acc[r·w + j] (r < rows).
		// With a nonnegative stride the first and last of each bound all
		// the others: touching them makes a bad index a bounds panic here.
		_, _ = bData[bBase+(kk-1)*bRS+jLo+w-1], acc[rows*w-1]
		lo = w
		for k0 := 0; k0 < kk && lo == w; k0 += tileK {
			kb := min(tileK, kk-k0)
			p := pa[:rows*kb]
			packA(p, rt, aData, a0+k0*ak, ai, ak, kb)
			if tile8x16(&p[0], kb, &bData[bBase+k0*bRS+jLo], bRS, &acc[0], w, rows, k0 == 0) {
				lo = 0
			}
		}
	} else if avx2FMA && kk > 0 && bRS >= 0 && w >= 8 {
		rows, rem := tileRows(rt), w%8
		// The remainder strip's accumulators, row stride 8: columns
		// w−8…w−1, of which the whole strips also compute all but rem.
		side := acc[rows*w:][:rows*8]
		// As above, and the assembly also writes side.
		_, _ = bData[bBase+(kk-1)*bRS+jLo+w-1], side[rows*8-1]
		lo = w
		for k0 := 0; k0 < kk && lo == w; k0 += tileK {
			kb := min(tileK, kk-k0)
			p := pa[:rows*kb]
			packA(p, rt, aData, a0+k0*ak, ai, ak, kb)
			// The whole strips into acc, then any remainder strip into side.
			for g := 0; g <= min(rem, 1); g++ {
				j, strips, c, stride := 0, w/8, acc, w
				if g == 1 {
					j, strips, c, stride = w-8, 1, side, 8
				}
				if tile4x8(&p[0], kb, &bData[bBase+k0*bRS+jLo+j], bRS, &c[0], stride, strips, rows/4, k0 == 0) {
					lo = 0
				}
			}
		}
		for r := 0; r < rt && lo == w && rem > 0; r++ {
			copy(acc[r*w+w-rem:][:rem], side[r*8+8-rem:])
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

// mulTileGo is mulTileAcc's Go loop, over columns [lo, w) of the tile's rt
// rows: row by row, each row's accumulators summing over ascending k.
func mulTileGo(rt int, aData []float32, a0, ai, ak, kk int, bData []float32, bBase, bRS, jLo int, acc []float64, w, lo int) {
	if lo == w {
		// The SIMD tile wrote every column: no rt·kk empty iterations.
		return
	}
	n := w - lo
	for r := range rt {
		c := acc[r*w+lo:][:n]
		clear(c)
		ar, b0 := a0+r*ai, bBase+jLo+lo
		for k := range kk {
			av := float64(aData[ar+k*ak])
			for t, bv := range bData[b0+k*bRS:][:n] {
				c[t] += av * float64(bv)
			}
		}
	}
}
