package ops

import (
	"dnnfusion/internal/tensor"
)

// BlockSource is how compiled kernels evaluate: LoadBlock fills dst with
// the n elements starting at flat row-major offset off of the logical
// tensor, without per-element index unravelling or virtual dispatch. Every
// source Virtualize composes implements it, end to end: a subtree of
// elementwise operators is one program — a list of operands delivered by
// flat offset and a list of typed loops over blockLen-element registers
// (program.go) — index-only movement is a strided view
// (view.go), row reductions and softmax stage contiguous runs, contractions
// run tiles over operand strides, row windows and packed panels
// (contraction.go), and the few operators with a genuinely
// gather-like access pattern stage their lazy operands once per kernel
// execution and then pull from memory (pullSource). The work of a LoadBlock
// call is proportional to the requested range (plus, at most once per
// execution, one copy of a staged operand) — never to a re-evaluation of
// the tree beneath per output element.
//
// Load, the scalar tree-walk, is the semantic oracle and the interpreter;
// it is not a production fallback. LoadBlock must produce bit-identical
// values to calling Load on every covered index: the block path is only a
// faster evaluation order. The one documented exception is the contraction's
// online-softmax recurrence (softmax(scores)·V fused flash-attention style,
// chain.go): its streaming rescale reassociates the exp/sum, so it matches
// the oracle within a few ULPs rather than bit-for-bit — still deterministic
// for a fixed schedule, and independent of the requested block ranges.
// Every softmax-free contraction, chained or not, remains bit-exact.
//
// Bit-identical includes non-finite values, so where a path may substitute
// an arithmetic identity for a skipped step the oracle states the rule:
// Conv padding is a zero operand, never a skipped tap — a padded tap
// contributes 0·w (NaN for a non-finite w) in convSource.Load and in the
// zero-filled im2col panels of the blocked contraction alike.
//
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

// blockLen is the elementwise evaluation granularity: a pointwise program's
// registers are this long, so however many operators it fuses, their
// intermediates are blockLen-element stripes that stay in L1.
const blockLen = 512

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
