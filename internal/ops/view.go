package ops

import (
	"slices"

	"dnnfusion/internal/tensor"
)

// layout is the strided-view descriptor every index-only movement operator
// composes into: element (i0, …, ir) of the view is the element at flat
// row-major offset base + Σ i_d·strides[d] of a backing operand. Transpose
// permutes the strides, Slice and Split move the base, Expand and
// elementwise broadcasting add stride-0 dimensions, and Reshape/Flatten/
// Squeeze/Unsqueeze re-split the dimensions when the strides allow it —
// the paper's Figure 5: movement folded into the consumer's index
// arithmetic instead of a copy.
type layout struct {
	shape   tensor.Shape
	strides []int
	base    int
}

func contiguousLayout(shape tensor.Shape) layout {
	return layout{shape: shape, strides: shape.Strides()}
}

// contiguous reports whether the view enumerates a dense row-major run of
// the backing (size-1 dimensions carry no stride information).
func (l layout) contiguous() bool {
	acc := 1
	for d := len(l.shape) - 1; d >= 0; d-- {
		if l.shape[d] == 1 {
			continue
		}
		if l.strides[d] != acc {
			return false
		}
		acc *= l.shape[d]
	}
	return true
}

// transpose makes view dimension i the old dimension perm[i].
func (l layout) transpose(perm []int) layout {
	out := layout{shape: make(tensor.Shape, len(perm)), strides: make([]int, len(perm)), base: l.base}
	for i, ax := range perm {
		out.shape[i], out.strides[i] = l.shape[ax], l.strides[ax]
	}
	return out
}

// slice keeps sizes[d] elements from starts[d] on along every dimension.
func (l layout) slice(starts []int, sizes tensor.Shape) layout {
	out := layout{shape: sizes, strides: l.strides, base: l.base}
	for d, s := range starts {
		out.base += s * l.strides[d]
	}
	return out
}

// expand broadcasts the view (right-aligned, NumPy rules) to target: every
// expanded or added dimension gets stride 0.
func (l layout) expand(target tensor.Shape) layout {
	out := layout{shape: target, strides: make([]int, len(target)), base: l.base}
	shift := len(target) - len(l.shape)
	for d := range l.shape {
		if l.shape[d] != 1 {
			out.strides[shift+d] = l.strides[d]
		}
	}
	return out
}

// reshape re-splits the view's dimensions into shape without moving data,
// when the strides allow it (each group of merged dimensions must itself be
// dense — the classic no-copy reshape test). ok is false when the reshape
// needs the elements in a different memory order.
func (l layout) reshape(shape tensor.Shape) (layout, bool) {
	// Size-1 dimensions constrain nothing: drop them from the old side.
	var oldDims, oldStrides []int
	for d, n := range l.shape {
		if n != 1 {
			oldDims = append(oldDims, n)
			oldStrides = append(oldStrides, l.strides[d])
		}
	}
	out := layout{shape: shape, strides: make([]int, len(shape)), base: l.base}
	oi, ni := 0, 0
	for oi < len(oldDims) && ni < len(shape) {
		oj, nj := oi+1, ni+1
		op, np := oldDims[oi], shape[ni]
		for op != np {
			if np < op {
				np *= shape[nj]
				nj++
			} else {
				op *= oldDims[oj]
				oj++
			}
		}
		for k := oi; k < oj-1; k++ {
			if oldStrides[k] != oldDims[k+1]*oldStrides[k+1] {
				return layout{}, false
			}
		}
		out.strides[nj-1] = oldStrides[oj-1]
		for k := nj - 1; k > ni; k-- {
			out.strides[k-1] = out.strides[k] * shape[k]
		}
		oi, ni = oj, nj
	}
	// Whatever is left on the new side is size 1 (element counts match).
	return out, true
}

// layoutOf returns the backing operand and layout s reads through: a view
// exposes its own, anything else is the dense layout over itself. Movement
// composes on the result, so a chain of views collapses into one.
func layoutOf(s Source) (Source, layout) {
	switch v := s.(type) {
	case *viewSource:
		return v.in, v.layout
	case *viewBlockSource:
		return v.in, v.layout
	}
	return s, contiguousLayout(s.Shape())
}

// viewSource reads a backing operand through a layout. Load is the scalar
// oracle: the view offset unravelled into the backing's index space.
type viewSource struct {
	layout
	in      Source
	inShape tensor.Shape
	inBuf   []int
	// data is the backing's flat row-major memory when it has one; Load
	// then reads the element in place instead of re-deriving its index.
	data []float32
	flat bool
}

func (s *viewSource) Shape() tensor.Shape { return s.shape }

func (s *viewSource) Load(idx []int) float32 {
	off := s.base
	for d, i := range idx {
		off += i * s.strides[d]
	}
	if s.flat {
		return s.data[off]
	}
	return s.in.Load(s.inShape.Unravel(off, s.inBuf))
}

// newView builds the source reading in through l, blocked whenever the
// backing can supply elements by flat offset:
//
//   - flat backing (tensor, arena slot): runs are copied — or gathered by
//     stride — straight out of its memory;
//   - lazy backing read in dense runs (slices, broadcasts, reshapes): the
//     runs are pulled from the producer's LoadBlock on demand, so work stays
//     proportional to the requested range;
//   - lazy backing read against its order (Transpose), or a MatMul/Gemm
//     tree under a non-identity view, whose single-run requests would take
//     the contraction off its tiles: the producer is staged whole, once per
//     kernel execution, into Source-owned scratch and then read like flat
//     memory.
//
// Only a lazy backing too large to stage (stageElemCap) leaves the view
// scalar.
func newView(in Source, l layout) Source {
	v := viewSource{layout: l, in: in, inShape: in.Shape(), inBuf: make([]int, in.Shape().Rank())}
	v.data, v.flat = FlatData(in)
	blk := &viewBlockSource{viewSource: v, runPlan: planRuns(l)}
	if v.flat {
		return blk
	}
	src, ok := AsBlock(in)
	if !ok {
		return &v
	}
	blk.identity = l.base == 0 && l.contiguous() && l.shape.NumElements() == v.inShape.NumElements()
	switch {
	case blk.unitRuns() && (blk.identity || !contractionRooted(in)):
		blk.blk = src
	case v.inShape.NumElements() <= stageElemCap:
		blk.stage = newStaged(src)
	default:
		return &v
	}
	return blk
}

// contractionRooted reports whether a blocked source tree is rooted in a
// MatMul/Gemm contraction, possibly through fused pointwise, softmax, or
// order-preserving view stages: single-run requests would take such a
// producer off its tiles.
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

// viewBlockSource is the blocked form of a view: one run-copy LoadBlock
// over the innermost run of the layout, whatever operator chain composed
// it. Exactly one of data (flat backing), stage (lazy backing staged
// whole) and blk (lazy backing streamed in runs) supplies the elements.
type viewBlockSource struct {
	viewSource
	runPlan
	stage *Staged
	blk   BlockSource
	// identity marks a streamed view that preserves the backing's flat
	// order exactly (a Reshape over a lazy producer): tile alignment and
	// contractionRooted see through it.
	identity bool
}

// runPlan is a layout normalized for iteration: size-1 dimensions dropped,
// mergeable neighbours merged, then split into outer dimensions (an
// odometer over row base offsets), one run dimension, and a repeat count
// for trailing stride-0 dimensions. A row is runLen backing elements,
// runStride apart, each repeated rep times.
type runPlan struct {
	rep, runLen, runStride int
	oShape                 tensor.Shape
	oStrides               []int
	oIdx                   []int
	// tmp holds the backing elements of a row segment while they are
	// expanded rep-fold.
	tmp []float32
}

func planRuns(l layout) runPlan {
	var dims, strides []int
	for d, n := range l.shape {
		if n == 1 {
			continue
		}
		if k := len(dims) - 1; k >= 0 && strides[k] == n*l.strides[d] {
			dims[k] *= n
			strides[k] = l.strides[d]
			continue
		}
		dims = append(dims, n)
		strides = append(strides, l.strides[d])
	}
	p := runPlan{rep: 1, runLen: 1}
	if k := len(dims) - 1; k >= 0 && strides[k] == 0 {
		p.rep = dims[k]
		dims, strides = dims[:k], strides[:k]
		p.tmp = make([]float32, blockLen)
	}
	if k := len(dims) - 1; k >= 0 {
		p.runLen, p.runStride = dims[k], strides[k]
		dims, strides = dims[:k], strides[:k]
	}
	p.oShape, p.oStrides, p.oIdx = dims, strides, make([]int, len(dims))
	return p
}

// unitRuns reports whether every run is dense in the backing, so a lazy
// producer can serve it with one LoadBlock.
func (p *runPlan) unitRuns() bool { return p.runLen == 1 || p.runStride == 1 }

func (s *viewBlockSource) LoadBlock(dst []float32, off, n int) {
	data := s.data
	if s.stage != nil {
		data = s.stage.fill()
	}
	rowSize := s.runLen * s.rep
	w := off % rowSize
	s.oShape.Unravel(off/rowSize, s.oIdx)
	b := s.base
	for d, i := range s.oIdx {
		b += i * s.oStrides[d]
	}
	// A stride-0 outer dimension repeats whole rows: the previous row of
	// this call is copied instead of pulled from the producer again.
	var prev []float32
	prevB := -1
	for n > 0 {
		c := rowSize - w
		if c > n {
			c = n
		}
		switch {
		case c == rowSize && b == prevB:
			copy(dst[:c], prev)
		default:
			s.loadRow(dst[:c], data, b, w)
			if c == rowSize {
				prev, prevB = dst[:c], b
			}
		}
		dst = dst[c:]
		n -= c
		w = 0
		for d := len(s.oShape) - 1; d >= 0; d-- {
			s.oIdx[d]++
			b += s.oStrides[d]
			if s.oIdx[d] < s.oShape[d] {
				break
			}
			b -= s.oStrides[d] * s.oShape[d]
			s.oIdx[d] = 0
		}
	}
}

// loadRow fills dst with row positions [w, w+len(dst)) of the row whose
// first backing element sits at offset b.
func (s *viewBlockSource) loadRow(dst, data []float32, b, w int) {
	if s.rep == 1 {
		s.gather(dst, data, b+w*s.runStride)
		return
	}
	e, skip := w/s.rep, w%s.rep
	for len(dst) > 0 {
		need := (skip + len(dst) + s.rep - 1) / s.rep
		if need > len(s.tmp) {
			need = len(s.tmp)
		}
		vals := s.tmp[:need]
		s.gather(vals, data, b+e*s.runStride)
		for _, v := range vals {
			c := s.rep - skip
			if c > len(dst) {
				c = len(dst)
			}
			for t := range dst[:c] {
				dst[t] = v
			}
			dst = dst[c:]
			skip = 0
		}
		e += need
	}
}

// gather fills dst with backing elements start, start+runStride, ….
func (s *viewBlockSource) gather(dst, data []float32, start int) {
	switch {
	case s.blk != nil:
		s.blk.LoadBlock(dst, start, len(dst))
	case s.runStride == 1 || len(dst) == 1:
		copy(dst, data[start:start+len(dst)])
	default:
		rs := s.runStride
		for t := range dst {
			dst[t] = data[start+t*rs]
		}
	}
}
