package ops

import (
	"math"

	"dnnfusion/internal/tensor"
)

// chainSource is the fused contraction-chain kernel: a MatMul/Gemm whose A
// operand is itself rooted in a blocked contraction (optionally through
// fused pointwise stages and/or a row softmax). Instead of staging the
// whole M×K intermediate, it pulls rowTile-high row groups of the producer
// on demand and contracts them against B immediately, so the intermediate
// never exists outside an L1-sized panel.
//
// Two paths:
//
//   - exact: A rows are the producer's own float32 outputs (bit-identical
//     to what the unfused pipeline would have materialized), contracted
//     with the same ascending-k float64 accumulation as mulTileAcc — the
//     result is bit-for-bit equal to the scalar oracle.
//
//   - online: when A is a non-log innermost-axis softmax over a
//     contraction, the softmax is folded into the second contraction with
//     the streaming-rescale (flash-attention) recurrence: raw score rows
//     are pulled, and per key panel the running max m and running sum l
//     rescale the float64 accumulators by exp(m_old−m_new). The result is
//     mathematically identical but not bit-identical to the two-pass
//     softmax — this is the one documented exception to the LoadBlock
//     bit-exactness contract, bounded to a few ULPs by the float64
//     accumulation (see BlockSource).
//
// Every LoadBlock request computes whole row groups over all n output
// columns, so the produced bits are independent of how the engine splits
// the output range across lanes.
type chainSource struct {
	// scalar is the original pull-model matmulSource: the semantic
	// reference for Shape/Load and the parity oracle.
	scalar Source
	shape  tensor.Shape

	// Consumer contraction dims: out is (batch..., m, n), contracting k.
	m, n, k int

	// prod streams A row groups: the producer's blocked tree on the exact
	// path, or the raw pre-softmax score tree on the online path.
	prod   BlockSource
	online bool

	// b is the B operand, resolved as in matmulBlockSource but always with
	// dense rows (column stride 1): the tile and rescale loops stream them.
	b        matOperand
	outBatch tensor.Shape
	batchBuf []int
	// aMatElems is m*k, one batch matrix's footprint in prod's flat space.
	aMatElems int

	// epi is the consumer's Gemm epilogue with a lazy addend staged (see
	// epilogue.blocked); nil for a MatMul consumer.
	epi *epilogue

	// Normalized schedules: the consumer's tiles are rowTile rows × jb
	// output columns; the producer's column panel becomes the online path's
	// key panel kp (the rescale cadence over the contraction axis).
	rowTile int
	jb      int
	kp      int

	aBuf   []float32 // rowTile*k staged producer rows
	outBuf []float32 // rowTile*n scratch for partially-requested groups
	acc    []float64 // rowTile*n float64 accumulators
	mRun   []float64 // online running max per group row
	lRun   []float64 // online running exp-sum per group row
}

func (s *chainSource) Shape() tensor.Shape    { return s.shape }
func (s *chainSource) Load(idx []int) float32 { return s.scalar.Load(idx) }

// setSchedules installs the consumer and producer tile schedules,
// normalizing both against the chain's shape and sizing scratch.
func (s *chainSource) setSchedules(cons, prod Schedule) {
	cons = cons.Normalize(s.m, s.n)
	s.rowTile, s.jb = cons.RowTile, cons.ColPanel
	s.kp = prod.Normalize(s.m, s.k).ColPanel
	if need := s.rowTile * s.k; len(s.aBuf) < need {
		s.aBuf = make([]float32, need)
	}
	if need := s.rowTile * s.n; len(s.outBuf) < need {
		s.outBuf = make([]float32, need)
	}
	if need := s.rowTile * s.n; len(s.acc) < need {
		s.acc = make([]float64, need)
	}
	if len(s.mRun) < s.rowTile {
		s.mRun = make([]float64, s.rowTile)
		s.lRun = make([]float64, s.rowTile)
	}
}

func (s *chainSource) LoadBlock(dst []float32, off, n int) {
	mn := s.m * s.n
	bData := s.b.mem()
	for n > 0 {
		batch := off / mn
		rem := off % mn
		i := rem / s.n
		j := rem % s.n
		bBase := s.b.offset(s.outBatch.Unravel(batch, s.batchBuf))
		// Whole row groups only: the group anchored below i is computed
		// across all n columns regardless of the requested sub-range, so
		// results never depend on lane splits or block boundaries.
		rt := s.rowTile
		i0 := i - i%rt
		g := rt
		if i0+g > s.m {
			g = s.m - i0
		}
		span := g * s.n
		lo := (i-i0)*s.n + j
		if lo == 0 && n >= span {
			s.computeGroup(dst[:span], bData, batch, bBase, i0, g)
			dst = dst[span:]
			off += span
			n -= span
			continue
		}
		s.computeGroup(s.outBuf[:span], bData, batch, bBase, i0, g)
		run := span - lo
		if run > n {
			run = n
		}
		copy(dst[:run], s.outBuf[lo:lo+run])
		dst = dst[run:]
		off += run
		n -= run
	}
}

// computeGroup fills out (g rows × n columns, contiguous) with output rows
// [i0, i0+g) of one batch matrix, pulling the producer rows first.
func (s *chainSource) computeGroup(out, bData []float32, batch, bBase, i0, g int) {
	s.prod.LoadBlock(s.aBuf[:g*s.k], batch*s.aMatElems+i0*s.k, g*s.k)
	if s.online {
		s.groupOnline(out, bData, bBase, i0, g)
	} else {
		s.groupExact(out, bData, bBase, i0, g)
	}
}

// groupExact contracts the staged producer rows against B with the same
// ascending-k float64 accumulation as mulTileAcc — bit-identical to the
// unfused pipeline (the staged rows are the producer's exact outputs).
func (s *chainSource) groupExact(out, bData []float32, bBase, i0, g int) {
	for j0 := 0; j0 < s.n; j0 += s.jb {
		w := s.n - j0
		if w > s.jb {
			w = s.jb
		}
		mulTileAcc(g, s.aBuf, 0, s.k, 1, s.k, bData, bBase, s.b.rs, j0, s.acc, w)
		for r := 0; r < g; r++ {
			s.epi.store(out[r*s.n+j0:], s.acc[r*w:r*w+w], i0+r, j0)
		}
	}
}

// groupOnline is the streaming-rescale softmax contraction: per key panel
// of kp raw scores, the running max and exp-sum are updated and the
// accumulators rescaled by exp(m_old−m_new), so softmax(scores)·B is
// computed in one pass without materializing the probabilities.
func (s *chainSource) groupOnline(out, bData []float32, bBase, i0, g int) {
	bRS := s.b.rs
	n, k := s.n, s.k
	acc := s.acc[:g*n]
	for t := range acc {
		acc[t] = 0
	}
	for r := 0; r < g; r++ {
		s.mRun[r] = math.Inf(-1)
		s.lRun[r] = 0
	}
	for k0 := 0; k0 < k; k0 += s.kp {
		wk := k - k0
		if wk > s.kp {
			wk = s.kp
		}
		for r := 0; r < g; r++ {
			row := s.aBuf[r*k+k0 : r*k+k0+wk]
			pm := math.Inf(-1)
			for _, v := range row {
				pm = math.Max(pm, float64(v))
			}
			m := s.mRun[r]
			a := acc[r*n : r*n+n]
			if pm > m {
				// Guard m = −Inf: exp(−Inf − pm) would poison the (all
				// zero) accumulators with NaN on the first panel.
				if !math.IsInf(m, -1) {
					scale := math.Exp(m - pm)
					s.lRun[r] *= scale
					for t := range a {
						a[t] *= scale
					}
				}
				m = pm
				s.mRun[r] = pm
			}
			l := s.lRun[r]
			for kk, v := range row {
				p := math.Exp(float64(v) - m)
				l += p
				bRow := bData[bBase+(k0+kk)*bRS : bBase+(k0+kk)*bRS+n]
				for t, bv := range bRow {
					a[t] += p * float64(bv)
				}
			}
			s.lRun[r] = l
		}
	}
	for r := 0; r < g; r++ {
		inv := 1 / s.lRun[r]
		a := acc[r*n : r*n+n]
		for t := range a {
			a[t] *= inv
		}
		s.epi.store(out[r*n:], a, i0+r, 0)
	}
}

// contractionRooted reports whether a blocked source tree is rooted in a
// heavy contraction (MatMul/Gemm or an already-fused chain), possibly
// through fused pointwise, softmax, or order-preserving view stages — the legality
// condition for streaming it as a chain producer.
func contractionRooted(s Source) bool {
	switch v := s.(type) {
	case *matmulBlockSource, *chainSource:
		return true
	case *softmaxBlockSource:
		return contractionRooted(v.blk)
	case *viewBlockSource:
		return v.identity && contractionRooted(v.blk)
	case *pointwiseBlockSource:
		for i := range v.blkIns {
			in := &v.blkIns[i]
			if in.kind == pwStream && contractionRooted(in.blk) {
				return true
			}
		}
	}
	return false
}

// chainProducer classifies a consumer's A operand: a non-log innermost
// softmax directly over a contraction streams online (prod = the raw score
// tree); any other contraction-rooted blocked tree streams exactly (prod =
// the tree itself, including a log-softmax — its rows are computed with
// the exact two-pass recurrence).
func chainProducer(a Source) (prod BlockSource, online, ok bool) {
	if sm, isSM := a.(*softmaxBlockSource); isSM && !sm.log && contractionRooted(sm.blk) {
		return sm.blk, true, true
	}
	if blk, isBlk := AsBlock(a); isBlk && contractionRooted(a) {
		return blk, false, true
	}
	return nil, false, false
}

// chainMatMul upgrades a contraction (MatMul, or Gemm with its epilogue)
// whose A operand is a fused contraction chain to the streaming
// chainSource. nil when the shape is not chainable (transposed operands,
// broadcast A batch, unstageable B).
func chainMatMul(s *matmulSource) *chainSource {
	if s.transA || s.transB {
		return nil
	}
	prod, online, ok := chainProducer(s.a)
	if !ok {
		return nil
	}
	out := s.shape
	outBatch := out[:out.Rank()-2]
	// A's batch dims must equal the output batch exactly (no broadcast):
	// the producer's flat space is then batch-major over m×k matrices.
	if s.ar-2 != outBatch.Rank() || !tensor.Shape(s.aShape[:s.ar-2]).Equal(outBatch) {
		return nil
	}
	b, ok := resolveOperand(s.b, false, outBatch)
	if ok && b.cs != 1 {
		// A column-strided B (a transposed view) is staged dense.
		blk, isBlk := AsBlock(s.b)
		if ok = isBlk && s.bShape.NumElements() <= stageElemCap; ok {
			b, ok = resolveOperand(newStaged(blk), false, outBatch)
		}
	}
	if !ok {
		return nil
	}
	c := &chainSource{
		scalar:    s,
		shape:     out,
		m:         s.m,
		n:         s.n,
		k:         s.k,
		prod:      prod,
		online:    online,
		b:         b,
		outBatch:  outBatch,
		batchBuf:  make([]int, outBatch.Rank()),
		aMatElems: s.m * s.k,
		epi:       s.epi.blocked(),
	}
	c.setSchedules(DefaultSchedule(s.k), DefaultSchedule(s.k))
	return c
}
