package ops

import (
	"fmt"
	"strings"

	"dnnfusion/internal/tensor"
)

// stageElemCap bounds one whole-operand staging buffer: the Source-owned
// scratch a consumer that needs random access allocates to hold a lazily
// produced operand — a contraction's B, Conv's and Pool's input, a
// transposing view's backing, a Concat's contraction operand, a gather-like
// operator's operands. (A contraction's lazy A is not among them: it arrives
// in row windows.)
// Scratch is per session and per worker lane, so it is capped rather than
// planned; an operand past the cap cannot be staged, the consumer then pulls
// it element by element through the scalar oracle, and the kernel is
// reported (ScalarPaths, KernelProfile.Scalar) instead of silently running
// orders of magnitude slow.
const stageElemCap = 1 << 20

// Staged materializes a lazily produced operand into Source-owned flat
// scratch once per kernel execution, so a consumer that reads it out of
// order (a heavy operator's multiply-accumulate loops, a transposing view,
// a gather) reads memory instead of re-evaluating the producer per element:
// a kernel's work is bounded by its unfused work plus one copy. The buffer
// is filled on first use and stays valid until Invalidate — the bound
// kernel invalidates its stages at the start of every execution, because
// the inputs beneath them change between runs.
//
// A row window (newRowStage) is the same thing over a moving range: its
// buffer holds the run of the operand it was last asked for, so a
// contraction pulls each row group of a lazy A once however many requests
// the group is consumed in. Only the contraction that owns a window reads
// it, through at.
type Staged struct {
	in    BlockSource
	shape tensor.Shape
	buf   []float32
	// lo is the operand offset buf starts at: 0 for a whole-operand stage.
	lo    int
	valid bool
}

func newStaged(in BlockSource) *Staged {
	shape := in.Shape()
	return &Staged{in: in, shape: shape, buf: make([]float32, shape.NumElements())}
}

// newRowStage returns a row window over in; its owner sizes the buffer
// (contraction.setSchedule).
func newRowStage(in BlockSource) *Staged { return &Staged{in: in, shape: in.Shape()} }

// Invalidate marks the staged copy stale; the next read refills it.
func (s *Staged) Invalidate() { s.valid = false }

// at returns operand elements [off, off+n), n <= len(buf): out of the buffer
// when that is the range it was last filled with, else pulled now.
func (s *Staged) at(off, n int) []float32 {
	if !s.valid || s.lo != off {
		s.in.LoadBlock(s.buf[:n], off, n)
		s.lo, s.valid = off, true
	}
	return s.buf[:n]
}

func (s *Staged) fill() []float32 { return s.at(0, len(s.buf)) }

func (s *Staged) Shape() tensor.Shape { return s.shape }

func (s *Staged) Load(idx []int) float32 { return s.fill()[s.shape.Ravel(idx)] }

func (s *Staged) LoadBlock(dst []float32, off, n int) { copy(dst, s.fill()[off:off+n]) }

// placeholderSource stands in for an exterior kernel input when a Source
// tree is composed only to be inspected (ScalarPaths over a model with
// shape-only weights): it counts as flat memory but has none.
type placeholderSource struct{ shape tensor.Shape }

// Placeholder returns a data-less stand-in for a materialized tensor of the
// given shape. Trees composed over it must not be evaluated.
func Placeholder(shape tensor.Shape) Source { return &placeholderSource{shape} }

func (s *placeholderSource) Shape() tensor.Shape { return s.shape }
func (s *placeholderSource) Load([]int) float32  { panic("ops: placeholder source evaluated") }
func (s *placeholderSource) LoadBlock([]float32, int, int) {
	panic("ops: placeholder source evaluated")
}

// FlatData returns the row-major backing slice of a Source whose elements
// are exactly a materialized slice: a tensor, or a dense view (Reshape,
// Flatten, Squeeze, Unsqueeze, a leading-axis Slice) over one. Consumers
// use it to run flat loops directly over operand memory.
func FlatData(s Source) ([]float32, bool) {
	switch v := s.(type) {
	case tensorSource:
		return v.t.Data(), true
	case *placeholderSource:
		return nil, true
	case *viewBlockSource:
		if v.flat && v.layout.contiguous() {
			if v.data == nil {
				return nil, true
			}
			return v.data[v.base : v.base+v.shape.NumElements()], true
		}
	}
	return nil, false
}

// randomAccess reports whether Load on s is an index computation and a
// memory read — flat memory, a strided view over flat memory, or a staged
// copy — rather than an evaluation of the tree beneath it.
func randomAccess(s Source) bool {
	switch v := s.(type) {
	case tensorSource, *placeholderSource, *Staged:
		return true
	case *viewBlockSource:
		return v.flat
	}
	return false
}

// denseOrStage resolves an operand for consumers whose inner loops index
// one dense row-major slice (Conv, Pool): the operand's own memory when it
// is flat, else a stage the consumer fills at execution time. ok is false
// when the operand is lazy and too large to stage.
func denseOrStage(s Source) (data []float32, stage *Staged, ok bool) {
	if d, isFlat := FlatData(s); isFlat {
		return d, nil, true
	}
	if st, isStaged := s.(*Staged); isStaged {
		return nil, st, true
	}
	if blk, isBlk := AsBlock(s); isBlk && s.Shape().NumElements() <= stageElemCap {
		return nil, newStaged(blk), true
	}
	return nil, nil, false
}

// dense returns the operand memory denseOrStage resolved, filling the stage
// when there is one.
func dense(data []float32, stage *Staged) []float32 {
	if stage != nil {
		return stage.fill()
	}
	return data
}

// pullSource gives an operator that only has a scalar Load — the genuinely
// gather-like ones (Gather, CumSum, Einsum, ConvTranspose, scattered-axis
// Reduce, off-axis Softmax, the normalization operators), and a Concat with
// an operand that has no blocked path — a place in a blocked kernel. Load is
// the operator over its original operands: the pure scalar oracle. LoadBlock
// walks the requested range calling Load on fast, the same operator composed
// over operands that are flat memory or staged copies, so every pull
// underneath is a memory read and the per-element path never re-evaluates a
// producer.
type pullSource struct {
	Source
	fast Source
	// operands are fast's inputs, for tree walks.
	operands []Source
	idx      []int
}

// pulled composes a scalar-only operator (mk builds its source over the
// given operands) into a pullSource.
func pulled(ins []Source, mk func(ins []Source) Source) Source {
	oracle := mk(ins)
	p := &pullSource{Source: oracle, fast: oracle, operands: ins, idx: make([]int, oracle.Shape().Rank())}
	var staged []Source
	for i, in := range ins {
		if in == nil || randomAccess(in) {
			continue
		}
		blk, ok := AsBlock(in)
		if !ok || in.Shape().NumElements() > stageElemCap {
			continue
		}
		if staged == nil {
			staged = append([]Source(nil), ins...)
		}
		staged[i] = newStaged(blk)
	}
	if staged != nil {
		p.fast, p.operands = mk(staged), staged
	}
	return p
}

func (s *pullSource) LoadBlock(dst []float32, off, n int) {
	shape := s.Shape()
	idx := shape.Unravel(off, s.idx)
	for t := range dst[:n] {
		dst[t] = s.fast.Load(idx)
		incIndex(shape, idx)
	}
}

// children lists the operand sources a node's blocked evaluation reads —
// the one place a new source type is taught to the tree walks below and in
// schedule.go.
func children(s Source) []Source {
	switch v := s.(type) {
	case *contraction:
		return []Source{v.a.src, v.b.src, v.c.src}
	case *poolBlockSource:
		return []Source{stagedOr(v.xStage, v.in)}
	case *pointwiseProgram:
		out := make([]Source, len(v.operands))
		for i := range v.operands {
			out[i] = v.operands[i].src
		}
		return out
	case *softmaxBlockSource:
		return []Source{v.blk}
	case *reduceBlockSource:
		return []Source{v.blk}
	case *concatSource:
		out := make([]Source, len(v.blks))
		for i, b := range v.blks {
			out[i] = b
		}
		return out
	case *viewBlockSource:
		switch {
		case v.stage != nil:
			return []Source{v.stage}
		case v.blk != nil:
			return []Source{v.blk}
		}
		return []Source{v.in}
	case *viewSource:
		return []Source{v.in}
	case *Staged:
		return []Source{v.in}
	case *pullSource:
		return v.operands
	}
	return nil
}

func stagedOr(stage *Staged, s Source) Source {
	if stage != nil {
		return stage
	}
	return s
}

// walk visits every distinct source of the tree once, parents first. nil
// operands (an absent bias) are skipped.
func walk(s Source, visit func(Source)) { walkAll([]Source{s}, visit) }

// walkAll is walk over several trees that may share subtrees (the outputs of
// one kernel): a shared source is still visited once.
func walkAll(roots []Source, visit func(Source)) {
	seen := map[Source]bool{}
	var rec func(Source)
	rec = func(s Source) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		visit(s)
		for _, c := range children(s) {
			rec(c)
		}
	}
	for _, s := range roots {
		rec(s)
	}
}

// ScratchBytes is the Source-owned float scratch of the trees under roots
// (one kernel's outputs, one lane), in bytes: pointwise programs' operand
// buffers and registers, contractions' accumulators, packed B panels,
// packed A micro-panels and depthwise bands, whole-operand stages and row
// windows, and the row buffers of blocked softmax (its exp row included),
// reductions and broadcasting views; float64 buffers count 8 bytes an element. It is per
// session and per worker lane, outside the planned arena; index tables and
// per-element odometers are not counted.
func ScratchBytes(roots ...Source) int64 {
	var total int64
	walkAll(roots, func(n Source) {
		switch v := n.(type) {
		case *pointwiseProgram:
			total += v.scratchBytes()
		case *contraction:
			total += 4*int64(len(v.panel)) + 8*int64(len(v.acc)+len(v.pa)+len(v.band)+len(v.wts))
		case *Staged:
			total += 4 * int64(len(v.buf))
		case *softmaxBlockSource:
			total += 4*int64(len(v.rowBuf)) + 8*int64(len(v.exps))
		case *reduceBlockSource:
			total += 4*int64(len(v.buf32)) + 8*int64(len(v.acc))
		case *viewBlockSource:
			total += 4 * int64(len(v.tmp))
		}
	})
	return total
}

// Programs summarizes every pointwise program in the trees under roots, one
// line each ("program: 6 ops, 3 operands, 2 registers"), for compiler
// reports.
func Programs(roots ...Source) []string {
	var out []string
	walkAll(roots, func(n Source) {
		if p, ok := n.(*pointwiseProgram); ok {
			out = append(out, p.String())
		}
	})
	return out
}

// StagedSources returns every stage in the tree — whole-operand stages and
// row windows — for the bound kernel to invalidate per execution. A whole
// stage is filled once per lane per execution, so the parallel executor
// also widens chunks for an output that has any stage to at most one per
// worker lane: more chunks would only spread the same staging work over
// more dispatches.
func StagedSources(s Source) []*Staged {
	var out []*Staged
	walk(s, func(n Source) {
		if st, ok := n.(*Staged); ok {
			out = append(out, st)
		}
	})
	return out
}

// ScalarPaths is the static check behind "no compiled kernel runs the
// scalar oracle": it lists every place in the tree where a per-element
// Load would evaluate a lazy operand instead of reading memory — a
// pull-model operator whose operand could not be staged (stageElemCap), or
// a source with no blocked path at all. Empty for every tree Virtualize
// composes over operands that fit the cap.
func ScalarPaths(s Source) []string {
	var out []string
	walk(s, func(n Source) {
		// pulls are the operands n reads with a scalar Load per element.
		name, pulls := sourceName(n), []Source(nil)
		switch v := n.(type) {
		case *pullSource:
			name, pulls = sourceName(v.fast), v.operands
		case *pointwiseProgram:
			pulls = v.scalars()
		default:
			if _, isBlk := AsBlock(n); isBlk {
				return
			}
			if pulls = children(n); pulls == nil {
				out = append(out, name+" has no blocked path")
			}
		}
		for _, in := range pulls {
			if in != nil && !randomAccess(in) {
				out = append(out, fmt.Sprintf("%s pulls %s element by element", name, sourceName(in)))
			}
		}
	})
	return out
}

// sourceName is a source's kind — its type without the Source, BlockSource or
// Program suffix: pointwise, conv, view — followed by its shape.
func sourceName(s Source) string {
	name := strings.TrimPrefix(fmt.Sprintf("%T", s), "*ops.")
	name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "Source"), "Block"), "Program")
	return fmt.Sprintf("%s%v", name, s.Shape())
}
