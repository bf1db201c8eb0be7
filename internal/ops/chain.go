package ops

import (
	"math"
	"slices"

	"dnnfusion/internal/tensor"
)

// The online-softmax chain: when a contraction's A operand is a non-log
// innermost-axis softmax over another contraction (attention's
// softmax(Q·Kᵀ)·V), the softmax is folded into the second contraction with
// the streaming-rescale (flash-attention) recurrence. The contraction pulls
// raw score rows through its A window exactly as it pulls any lazy A, and
// groupOnline takes the tile loop's place. The result is mathematically
// identical but not bit-identical to the two-pass softmax — the one
// documented exception to the LoadBlock bit-exactness contract, bounded to
// a few ULPs by the float64 accumulation (see BlockSource). Each output row
// is computed whole and on its own, so the produced bits are independent of
// how a range is split across requests or lanes.

// onlineScores returns the raw score tree a contraction streams online, or
// nil when it contracts exactly. The conditions mirror fusion.DetectChains,
// which is what licenses the tolerance: an untransposed consumer whose A
// batch equals the output's, fed directly by the softmax of a MatMul/Gemm-
// rooted tree, and a B whose rows the recurrence can stream.
func onlineScores(s *matmulSource, b operand) Source {
	sm, isSM := s.a.(*softmaxBlockSource)
	batch := s.shape[:s.shape.Rank()-2]
	if !isSM || sm.log || !contractionRooted(sm.blk) || s.transA || s.transB || b.cs != 1 ||
		!tensor.Shape(s.aShape[:s.ar-2]).Equal(batch) {
		return nil
	}
	return sm.blk
}

// groupOnline fills out (rows × n, contiguous) with the output rows whose
// raw score rows start at scores (row stride k): per key panel of kp scores the
// running max and exp-sum are updated and the accumulators rescaled by
// exp(m_old−m_new), so softmax(scores)·B is computed in one pass without
// materializing the probabilities. cBase addresses the addend of the first
// row.
func (s *contraction) groupOnline(out, scores, bData []float32, bBase int, cData []float32, cBase, rows int) {
	bRS := s.b.rs
	n, k := s.n, s.k
	acc := s.acc[:rows*n]
	for t := range acc {
		acc[t] = 0
	}
	for r := 0; r < rows; r++ {
		s.mRun[r] = math.Inf(-1)
		s.lRun[r] = 0
	}
	for k0 := 0; k0 < k; k0 += s.kp {
		wk := k - k0
		if wk > s.kp {
			wk = s.kp
		}
		for r := 0; r < rows; r++ {
			row := scores[r*k+k0 : r*k+k0+wk]
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
	for r := 0; r < rows; r++ {
		inv := 1 / s.lRun[r]
		a := acc[r*n : r*n+n]
		for t := range a {
			a[t] *= inv
		}
		s.finish(out[r*n:], a, cData, cBase+r*s.c.rs)
	}
}

// contractionRooted reports whether a blocked source tree is rooted in a
// MatMul/Gemm contraction, possibly through fused pointwise, softmax, or
// order-preserving view stages. It never decides how an operand is
// delivered: it licenses the online recurrence (onlineScores), and tells
// newView that single-run requests would take a tiled producer off its
// tiles.
func contractionRooted(s Source) bool {
	switch v := s.(type) {
	case *contraction:
		_, isMatMul := v.Source.(*matmulSource)
		return isMatMul
	case *softmaxBlockSource:
		return contractionRooted(v.blk)
	case *viewBlockSource:
		return v.identity && contractionRooted(v.blk)
	case *pointwiseProgram:
		return slices.ContainsFunc(v.streams(), contractionRooted)
	}
	return false
}
