package ops

import (
	"dnnfusion/internal/tensor"
)

// BlockSource is the blocked fast path of Source: LoadBlock fills dst with
// the n elements starting at flat row-major offset off of the logical
// tensor, without per-element index unravelling or virtual dispatch. A
// Source advertises the fast path by implementing this interface; the
// executor falls back to scalar Load for sources that don't (genuinely
// gather-like index patterns: Transpose, Gather, Expand, ...).
//
// LoadBlock must produce bit-identical values to calling Load on every
// covered index: the scalar tree-walk remains the semantic oracle, the
// block path is only a faster evaluation order over contiguous memory.
// The one documented exception is chainSource's online-softmax path
// (softmax(scores)·V fused flash-attention style): its streaming-rescale
// recurrence reassociates the exp/sum, so it matches the oracle within a
// few ULPs rather than bit-for-bit — still deterministic for a fixed
// schedule, and independent of the requested block ranges. Every
// softmax-free chain remains bit-exact.
// Like Load, LoadBlock may use internal scratch, so a BlockSource belongs
// to one goroutine at a time; parallel executors compose one Source tree
// per worker.
type BlockSource interface {
	Source
	LoadBlock(dst []float32, off, n int)
}

// AsBlock returns the blocked fast path of s when it has one.
func AsBlock(s Source) (BlockSource, bool) {
	b, ok := s.(BlockSource)
	return b, ok
}

// FlatData returns the row-major backing slice of a Source whose elements
// are exactly a materialized slice: a tensor, or a Reorganize view
// (Reshape/Flatten/Squeeze/Unsqueeze) over one. Heavy operators (MatMul,
// Conv, Pool) use it to run tiled flat loops directly over operand memory.
func FlatData(s Source) ([]float32, bool) {
	switch v := s.(type) {
	case tensorSource:
		return v.t.Data(), true
	case *reorganizeBlockSource:
		return FlatData(v.ins[0])
	}
	return nil, false
}

// blockLen is the elementwise streaming granularity: per-input staging
// buffers are this long, so a chain of fused elementwise operators
// processes blockLen-element stripes that stay in L1.
const blockLen = 512

// stageElemCap bounds the per-session scratch a heavy operator (MatMul,
// Gemm, Conv, Pool) allocates to stage a non-flat operand; beyond it the
// scalar pull-model path wins on memory footprint.
const stageElemCap = 1 << 20

// flatOrStage resolves a heavy operator's operand for flat inner loops:
// the operand's own row-major backing when it is flat, or — when the
// operand is a fused blocked producer — a per-session staging buffer of
// elems elements, filled from the producer at execution time so the
// multiply-accumulate still streams contiguous memory ("operand tiles
// materialized once" instead of one virtual Load per accumulation step).
// ok is false when the operand is neither flat nor blocked, or too large
// to stage.
func flatOrStage(s Source, elems int) (data []float32, stage BlockSource, ok bool) {
	if d, isFlat := FlatData(s); isFlat {
		return d, nil, true
	}
	if blk, isBlk := AsBlock(s); isBlk && elems <= stageElemCap {
		return make([]float32, elems), blk, true
	}
	return nil, nil, false
}

// loadPeriodic fills dst with elements [off, off+len(dst)) of the infinite
// periodic extension of src (period elements long). This is how suffix
// broadcasting (e.g. a [C] bias against an [N,C] activation) streams: the
// input's flat data simply repeats every period elements.
func loadPeriodic(src BlockSource, dst []float32, off, period int) {
	for len(dst) > 0 {
		p := off % period
		run := period - p
		if run > len(dst) {
			run = len(dst)
		}
		src.LoadBlock(dst[:run], p, run)
		dst = dst[run:]
		off += run
	}
}

// suffixPeriod reports whether in broadcasts against out purely as a
// trailing-suffix repeat: every leading dimension of in (right-aligned
// against out) is 1 and the remaining dimensions equal out's suffix. The
// returned period is in.NumElements(): flat input offset = flat output
// offset % period. Shapes equal to out return period == out.NumElements()
// (plain streaming); single-element shapes return period 1.
func suffixPeriod(in, out tensor.Shape) (int, bool) {
	if in.Rank() > out.Rank() {
		return 0, false
	}
	shift := out.Rank() - in.Rank()
	i := in.Rank() - 1
	// The matched suffix: trailing dims equal to out's.
	for ; i >= 0 && in[i] == out[shift+i]; i-- {
	}
	// Everything left of it must be a broadcast 1; a non-1 dim there (or a
	// 1 wedged between non-1 matched dims) breaks flat periodicity.
	for ; i >= 0; i-- {
		if in[i] != 1 {
			return 0, false
		}
	}
	return in.NumElements(), true
}

// HasStagedOperand reports whether any source in the tree stages a fused
// producer into per-session scratch at LoadBlock time (a heavy operator
// over a non-flat operand). Staging is re-streamed on every LoadBlock
// call, so the parallel executor widens chunks for such outputs to at
// most one per worker lane — otherwise chunk-count would multiply the
// producer's evaluation work.
func HasStagedOperand(s Source) bool {
	switch v := s.(type) {
	case *chainSource:
		// The producer streams incrementally per row group (not re-staged
		// whole per call), so it does not count as staged by itself; B
		// staging and staged operands deeper in either tree do.
		return v.bStage != nil || HasStagedOperand(v.epi.addend()) || HasStagedOperand(v.prod)
	case *matmulBlockSource:
		return v.aStage != nil || v.bStage != nil || HasStagedOperand(v.epi.addend()) ||
			HasStagedOperand(v.a) || HasStagedOperand(v.b)
	case *convBlockSource:
		return v.xStage != nil || v.wStage != nil || v.biasStage != nil ||
			HasStagedOperand(v.x) || HasStagedOperand(v.w)
	case *poolBlockSource:
		return v.xStage != nil || HasStagedOperand(v.in)
	case *pointwiseBlockSource:
		for _, in := range v.ins {
			if HasStagedOperand(in) {
				return true
			}
		}
	case *reorganizeBlockSource:
		return HasStagedOperand(v.ins[0])
	case *sliceBlockSource:
		return HasStagedOperand(v.ins[0])
	case *softmaxBlockSource:
		return HasStagedOperand(v.in)
	}
	return false
}

// incIndex advances idx to the next row-major index of shape, wrapping to
// all-zero after the last one.
func incIndex(shape tensor.Shape, idx []int) {
	for d := len(shape) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < shape[d] {
			return
		}
		idx[d] = 0
	}
}
