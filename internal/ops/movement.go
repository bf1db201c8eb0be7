package ops

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// movement is the shared implementation of pure data-movement operators:
// every output element is a copy of exactly one input element, located by an
// index transform. Covers the paper's Reorganize and Shuffle classes, the
// index-remapping One-to-One operators (Slice, Split, Concat), and the
// copying One-to-Many operators (Expand, Resize, Upsample). FLOPs are zero;
// the cost of these operators is entirely memory traffic, which is why the
// intra-block optimization (Figure 5) folds them into index changes.
//
// Every single-input operator states its transform as view, a rewrite of
// the input's strided layout, and virtualizes to a view (view.go) that
// composes with any view beneath it: Transpose, DepthToSpace and
// SpaceToDepth permute re-split dimensions, Slice and Split move the base,
// Expand, Resize and Upsample repeat by stride 0, and the Reorganize
// operators re-split the layout alone. Concat reads its operands' runs in
// turn (concatSource).
type movement struct {
	name       string
	arity      int // -1 for variadic (Concat)
	numOutputs int
	mapping    MappingType
	attrKey    string
	infer      func(in []tensor.Shape) ([]tensor.Shape, error)
	// view rewrites the layout of input 0 into a layout whose row-major
	// order is that of output outNo (inferred shape out); nil for the
	// Reorganize operators, whose flat order is the input's.
	view func(l layout, outNo int, out tensor.Shape) layout
	// attrs holds structured attributes for rewrite-rule inspection.
	attrs map[string]any
}

// IsMovement reports whether op is a pure data-movement operator, which the
// code generator folds into index arithmetic instead of materializing
// (intra-block optimization, Figure 5).
func IsMovement(op Operator) bool {
	_, ok := op.(*movement)
	return ok
}

// Attr returns a structured attribute of a data-movement or pointwise
// operator (e.g. the permutation of a Transpose) or nil when absent.
func Attr(op Operator, key string) any {
	switch o := op.(type) {
	case *movement:
		return o.attrs[key]
	case *pointwise:
		return o.attr(key)
	}
	return nil
}

func (m *movement) Type() string           { return m.name }
func (m *movement) NumOutputs() int        { return m.numOutputs }
func (m *movement) Properties() Properties { return Properties{Linear: true} }
func (m *movement) AttrKey() string        { return m.attrKey }
func (m *movement) FLOPs(in []tensor.Shape) int64 {
	return 0
}

func (m *movement) Mapping(in []tensor.Shape) MappingType { return m.mapping }

func (m *movement) checkArity(n int) error {
	if m.arity >= 0 && n != m.arity {
		return errInputs(m.name, fmt.Sprint(m.arity), n)
	}
	if m.arity < 0 && n < 1 {
		return errInputs(m.name, ">=1", n)
	}
	return nil
}

func (m *movement) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if err := m.checkArity(len(in)); err != nil {
		return nil, err
	}
	return m.infer(in)
}

func (m *movement) Virtualize(ins []Source, outNo int) (Source, error) {
	if err := m.checkArity(len(ins)); err != nil {
		return nil, err
	}
	if outNo < 0 || outNo >= m.numOutputs {
		return nil, fmt.Errorf("%s: output %d out of range", m.name, outNo)
	}
	shapes := make([]tensor.Shape, len(ins))
	for i, s := range ins {
		shapes[i] = s.Shape()
	}
	outs, err := m.infer(shapes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.name, err)
	}
	out := outs[outNo]
	if m.arity < 0 {
		axis, _ := tensor.NormalizeAxis(m.attrs["axis"].(int), out.Rank())
		return newConcat(ins, out, axis), nil
	}
	backing, l := layoutOf(ins[0])
	if m.view != nil {
		l = m.view(l, outNo, out)
	}
	if r, ok := l.reshape(out); ok {
		return newView(backing, r), nil
	}
	// l enumerates out's order but its dimensions do not merge into out's:
	// read it as one dense run (a Reorganize operator's l is its input's).
	dense := ins[0]
	if m.view != nil {
		dense = newView(backing, l)
	}
	return newView(dense, contiguousLayout(out)), nil
}

// unary builds a one-input, one-output movement operator from the shape
// function of its input. A Reorganize operator needs nothing more: the flat
// order is unchanged, so the output is the input's layout re-split.
func unary(name string, mapping MappingType, attrKey string, attrs map[string]any,
	infer func(tensor.Shape) (tensor.Shape, error)) *movement {
	m := &movement{name: name, arity: 1, numOutputs: 1, mapping: mapping, attrKey: attrKey, attrs: attrs}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		out, err := infer(in[0])
		if err != nil {
			return nil, err
		}
		return []tensor.Shape{out}, nil
	}
	return m
}

// NewReshape reshapes to the target shape; one dimension may be -1 to infer.
func NewReshape(target ...int) Operator {
	t := tensor.Shape(target).Clone()
	return unary("Reshape", Reorganize, fmt.Sprintf("shape=%v", t), map[string]any{"shape": []int(t)}, func(in tensor.Shape) (tensor.Shape, error) {
		out := t.Clone()
		infer := -1
		known := 1
		for i, d := range out {
			if d == -1 {
				if infer >= 0 {
					return nil, fmt.Errorf("Reshape: multiple -1 dims in %v", t)
				}
				infer = i
			} else {
				known *= d
			}
		}
		n := in.NumElements()
		if infer >= 0 {
			if known == 0 || n%known != 0 {
				return nil, fmt.Errorf("Reshape: cannot infer dim for %v from %v", t, in)
			}
			out[infer] = n / known
		}
		if out.NumElements() != n {
			return nil, fmt.Errorf("Reshape: %v incompatible with input %v", t, in)
		}
		return out, nil
	})
}

// NewFlatten flattens into a 2-D tensor splitting at axis.
func NewFlatten(axis int) Operator {
	return unary("Flatten", Reorganize, fmt.Sprintf("axis=%d", axis), map[string]any{"axis": axis}, func(in tensor.Shape) (tensor.Shape, error) {
		ax, ok := tensor.NormalizeAxis(axis, in.Rank()+1)
		if !ok {
			return nil, fmt.Errorf("Flatten: axis %d out of range for %v", axis, in)
		}
		a, b := 1, 1
		for i, d := range in {
			if i < ax {
				a *= d
			} else {
				b *= d
			}
		}
		return tensor.Of(a, b), nil
	})
}

// NewSqueeze removes the given size-1 axes (all size-1 axes if none given).
func NewSqueeze(axes ...int) Operator {
	ax := append([]int{}, axes...)
	return unary("Squeeze", Reorganize, fmt.Sprintf("axes=%v", axes), map[string]any{"axes": ax}, func(in tensor.Shape) (tensor.Shape, error) {
		drop := make(map[int]bool)
		if len(axes) == 0 {
			for i, d := range in {
				if d == 1 {
					drop[i] = true
				}
			}
		}
		for _, a := range axes {
			ax, ok := tensor.NormalizeAxis(a, in.Rank())
			if !ok || in[ax] != 1 {
				return nil, fmt.Errorf("Squeeze: axis %d invalid for %v", a, in)
			}
			drop[ax] = true
		}
		out := make(tensor.Shape, 0, in.Rank())
		for i, d := range in {
			if !drop[i] {
				out = append(out, d)
			}
		}
		return out, nil
	})
}

// NewUnsqueeze inserts size-1 dimensions at the given output axes.
func NewUnsqueeze(axes ...int) Operator {
	ax := append([]int{}, axes...)
	return unary("Unsqueeze", Reorganize, fmt.Sprintf("axes=%v", axes), map[string]any{"axes": ax}, func(in tensor.Shape) (tensor.Shape, error) {
		outRank := in.Rank() + len(axes)
		ins := make(map[int]bool)
		for _, a := range axes {
			ax, ok := tensor.NormalizeAxis(a, outRank)
			if !ok || ins[ax] {
				return nil, fmt.Errorf("Unsqueeze: axis %d invalid for %v", a, in)
			}
			ins[ax] = true
		}
		out := make(tensor.Shape, 0, outRank)
		j := 0
		for i := 0; i < outRank; i++ {
			if ins[i] {
				out = append(out, 1)
			} else {
				out = append(out, in[j])
				j++
			}
		}
		return out, nil
	})
}

// NewTranspose permutes dimensions; output dim i is input dim perm[i].
func NewTranspose(perm ...int) Operator {
	p := append([]int(nil), perm...)
	m := unary("Transpose", Shuffle, fmt.Sprintf("perm=%v", p), map[string]any{"perm": p}, func(s tensor.Shape) (tensor.Shape, error) {
		if len(p) != s.Rank() {
			return nil, fmt.Errorf("Transpose: perm %v does not match rank of %v", p, s)
		}
		seen := make([]bool, s.Rank())
		out := make(tensor.Shape, s.Rank())
		for i, ax := range p {
			if ax < 0 || ax >= s.Rank() || seen[ax] {
				return nil, fmt.Errorf("Transpose: invalid perm %v for %v", p, s)
			}
			seen[ax] = true
			out[i] = s[ax]
		}
		return out, nil
	})
	m.view = func(l layout, _ int, _ tensor.Shape) layout { return l.transpose(p) }
	return m
}

// TransposePerm returns the permutation of a Transpose operator, or nil if
// op is not a Transpose.
func TransposePerm(op Operator) []int {
	if op.Type() != "Transpose" {
		return nil
	}
	p, _ := Attr(op, "perm").([]int)
	return p
}

// NewDepthToSpace rearranges depth into spatial blocks (DCR mode, NCHW).
func NewDepthToSpace(block int) Operator {
	m := unary("DepthToSpace", Shuffle, fmt.Sprintf("block=%d", block), map[string]any{"block": block}, func(s tensor.Shape) (tensor.Shape, error) {
		if block < 1 || s.Rank() != 4 || s[1]%(block*block) != 0 {
			return nil, fmt.Errorf("DepthToSpace: invalid input %v for block %d", s, block)
		}
		return tensor.Of(s[0], s[1]/(block*block), s[2]*block, s[3]*block), nil
	})
	// Channel (bh·block + bw)·C' + c of pixel (h, w) is output pixel
	// (h·block + bh, w·block + bw) of channel c: C splits into (bh, bw, c),
	// and [N, c, h, bh, w, bw] is the output's row-major order.
	m.view = func(l layout, _ int, _ tensor.Shape) layout {
		n, c, h, w := l.shape[0], l.shape[1], l.shape[2], l.shape[3]
		split, _ := l.reshape(tensor.Of(n, block, block, c/(block*block), h, w)) // a split always succeeds
		return split.transpose([]int{0, 3, 4, 1, 5, 2})
	}
	return m
}

// NewSpaceToDepth rearranges spatial blocks into depth (NCHW).
func NewSpaceToDepth(block int) Operator {
	m := unary("SpaceToDepth", Shuffle, fmt.Sprintf("block=%d", block), map[string]any{"block": block}, func(s tensor.Shape) (tensor.Shape, error) {
		if block < 1 || s.Rank() != 4 || s[2]%block != 0 || s[3]%block != 0 {
			return nil, fmt.Errorf("SpaceToDepth: invalid input %v for block %d", s, block)
		}
		return tensor.Of(s[0], s[1]*block*block, s[2]/block, s[3]/block), nil
	})
	// The inverse of DepthToSpace: H and W split into (h, bh) and (w, bw),
	// and [N, bh, bw, c, h, w] is the output's row-major order.
	m.view = func(l layout, _ int, _ tensor.Shape) layout {
		n, c, h, w := l.shape[0], l.shape[1], l.shape[2], l.shape[3]
		split, _ := l.reshape(tensor.Of(n, c, h/block, block, w/block, block)) // a split always succeeds
		return split.transpose([]int{0, 3, 5, 1, 2, 4})
	}
	return m
}

// NewSlice extracts [start, end) with unit step along each of the given
// axes. Negative indices are resolved against the dimension size.
func NewSlice(axes, starts, ends []int) Operator {
	ax := append([]int(nil), axes...)
	st := append([]int(nil), starts...)
	en := append([]int(nil), ends...)
	resolve := func(s tensor.Shape) (starts, sizes []int, err error) {
		starts = make([]int, s.Rank())
		sizes = append([]int(nil), s...)
		for i, a := range ax {
			na, ok := tensor.NormalizeAxis(a, s.Rank())
			if !ok {
				return nil, nil, fmt.Errorf("Slice: axis %d out of range for %v", a, s)
			}
			b, e := st[i], en[i]
			if b < 0 {
				b += s[na]
			}
			if e < 0 {
				e += s[na]
			}
			if e > s[na] {
				e = s[na]
			}
			if b < 0 || b >= e {
				return nil, nil, fmt.Errorf("Slice: empty or invalid range [%d,%d) on axis %d of %v", b, e, na, s)
			}
			starts[na] = b
			sizes[na] = e - b
		}
		return starts, sizes, nil
	}
	m := unary("Slice", OneToOne, fmt.Sprintf("axes=%v,starts=%v,ends=%v", ax, st, en),
		map[string]any{"axes": ax, "starts": st, "ends": en}, func(s tensor.Shape) (tensor.Shape, error) {
			_, sizes, err := resolve(s)
			return sizes, err
		})
	m.view = func(l layout, _ int, out tensor.Shape) layout {
		starts, _, _ := resolve(l.shape) // infer already accepted this shape
		return l.slice(starts, out)
	}
	return m
}

// NewSplit splits the input along axis into len(sizes) outputs.
func NewSplit(axis int, sizes ...int) Operator {
	sz := append([]int(nil), sizes...)
	m := &movement{
		name:       "Split",
		arity:      1,
		numOutputs: len(sz),
		mapping:    OneToOne,
		attrKey:    fmt.Sprintf("axis=%d,sizes=%v", axis, sz),
		attrs:      map[string]any{"axis": axis, "sizes": sz},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		s := in[0]
		na, ok := tensor.NormalizeAxis(axis, s.Rank())
		if !ok {
			return nil, fmt.Errorf("Split: axis %d out of range for %v", axis, s)
		}
		total := 0
		outs := make([]tensor.Shape, len(sz))
		for i, n := range sz {
			if n < 1 {
				return nil, fmt.Errorf("Split: empty output %d (size %d) of %v", i, n, s)
			}
			total += n
			o := s.Clone()
			o[na] = n
			outs[i] = o
		}
		if total != s[na] {
			return nil, fmt.Errorf("Split: sizes %v do not sum to dim %d of %v", sz, s[na], s)
		}
		return outs, nil
	}
	m.view = func(l layout, outNo int, out tensor.Shape) layout {
		na, _ := tensor.NormalizeAxis(axis, len(l.shape))
		starts := make([]int, len(l.shape))
		for i := 0; i < outNo; i++ {
			starts[na] += sz[i]
		}
		return l.slice(starts, out)
	}
	return m
}

// NewConcat concatenates its inputs along axis.
func NewConcat(axis int) Operator {
	m := &movement{
		name:       "Concat",
		arity:      -1,
		numOutputs: 1,
		mapping:    OneToOne,
		attrKey:    fmt.Sprintf("axis=%d", axis),
		attrs:      map[string]any{"axis": axis},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		na, ok := tensor.NormalizeAxis(axis, in[0].Rank())
		if !ok {
			return nil, fmt.Errorf("Concat: axis %d out of range for %v", axis, in[0])
		}
		out := in[0].Clone()
		for _, s := range in[1:] {
			if s.Rank() != out.Rank() {
				return nil, fmt.Errorf("Concat: rank mismatch %v vs %v", in[0], s)
			}
			for i := range s {
				if i == na {
					continue
				}
				if s[i] != out[i] {
					return nil, fmt.Errorf("Concat: dim %d mismatch %v vs %v", i, in[0], s)
				}
			}
			out[na] += s[na]
		}
		return []tensor.Shape{out}, nil
	}
	return m
}

// concatSource is Concat over its operands. Each output row — one index of
// the dimensions before the axis — is run o of every operand in turn, where
// a run of operand i is its slice of the row, runs[i] elements long. Load is
// the oracle; LoadBlock copies each run through its operand's LoadBlock.
type concatSource struct {
	shape tensor.Shape
	axis  int
	// ins are the operands Load reads; blks those LoadBlock reads: ins
	// streamed, except a contraction's output, staged whole so the
	// contraction runs whole tiles rather than one run per request.
	ins  []Source
	blks []BlockSource
	runs []int
	row  int
	idx  []int
}

// newConcat streams every operand that is a BlockSource; when one is not,
// the output is pulled element by element (pullSource).
func newConcat(ins []Source, out tensor.Shape, axis int) Source {
	mk := func(ins []Source) Source {
		return &concatSource{shape: out, axis: axis, ins: ins, row: out[axis:].NumElements(), idx: make([]int, out.Rank())}
	}
	s := mk(ins).(*concatSource)
	inner := out[axis+1:].NumElements()
	for _, in := range ins {
		blk, ok := AsBlock(in)
		if !ok {
			return pulled(ins, mk)
		}
		if contractionRooted(in) && in.Shape().NumElements() <= stageElemCap {
			blk = newStaged(blk)
		}
		s.blks = append(s.blks, blk)
		s.runs = append(s.runs, in.Shape()[axis]*inner)
	}
	return s
}

func (s *concatSource) Shape() tensor.Shape { return s.shape }

func (s *concatSource) Load(idx []int) float32 {
	copy(s.idx, idx)
	for _, in := range s.ins {
		d := in.Shape()[s.axis]
		if s.idx[s.axis] < d {
			return in.Load(s.idx)
		}
		s.idx[s.axis] -= d
	}
	panic("Concat: index out of range")
}

func (s *concatSource) LoadBlock(dst []float32, off, n int) {
	o, w, i := off/s.row, off%s.row, 0
	for w >= s.runs[i] {
		w -= s.runs[i]
		i++
	}
	for n > 0 {
		c := min(s.runs[i]-w, n)
		s.blks[i].LoadBlock(dst[:c], o*s.runs[i]+w, c)
		dst, n, w = dst[c:], n-c, 0
		if i++; i == len(s.runs) {
			i, o = 0, o+1
		}
	}
}

// NewExpand broadcasts the input to the target shape (One-to-Many).
func NewExpand(target ...int) Operator {
	t := tensor.Shape(target).Clone()
	m := unary("Expand", OneToMany, fmt.Sprintf("shape=%v", t), map[string]any{"shape": []int(t)}, func(s tensor.Shape) (tensor.Shape, error) {
		out, err := tensor.BroadcastShapes(s, t)
		if err != nil {
			return nil, fmt.Errorf("Expand: %w", err)
		}
		if !out.Equal(t) {
			return nil, fmt.Errorf("Expand: input %v does not broadcast to %v", s, t)
		}
		return out, nil
	})
	m.view = func(l layout, _ int, out tensor.Shape) layout { return l.expand(out) }
	return m
}

// NewResize scales spatial dimensions by integer factors using
// nearest-neighbor interpolation (mode used by the paper's detection
// models). scales has one entry per input dimension.
func NewResize(scales ...int) Operator {
	sc := append([]int(nil), scales...)
	m := unary("Resize", OneToMany, fmt.Sprintf("scales=%v", sc), map[string]any{"scales": sc}, func(s tensor.Shape) (tensor.Shape, error) {
		if s.Rank() != len(sc) {
			return nil, fmt.Errorf("Resize: scales %v do not match rank of %v", sc, s)
		}
		out := make(tensor.Shape, s.Rank())
		for i, d := range s {
			if sc[i] < 1 {
				return nil, fmt.Errorf("Resize: invalid scale %d", sc[i])
			}
			out[i] = d * sc[i]
		}
		return out, nil
	})
	// Nearest-neighbor by an integer factor repeats each element sc[d]
	// times along d: a stride-0 dimension after each dimension.
	m.view = func(l layout, _ int, _ tensor.Shape) layout {
		r := layout{base: l.base}
		for d, n := range l.shape {
			r.shape = append(r.shape, n, sc[d])
			r.strides = append(r.strides, l.strides[d], 0)
		}
		return r
	}
	return m
}

// NewUpsample is Resize restricted to NCHW spatial upsampling by factor f.
func NewUpsample(f int) Operator {
	op := NewResize(1, 1, f, f).(*movement)
	op.name = "Upsample"
	op.attrKey = fmt.Sprintf("f=%d", f)
	op.attrs["f"] = f
	return op
}

// NewGather gathers slices of the data input (input 0) along axis using the
// integer-valued indices input (input 1). Classified One-to-Many: one input
// element may be copied to many output positions.
func NewGather(axis int) Operator {
	return &gather{axis: axis}
}

type gather struct{ axis int }

func (g *gather) Type() string           { return "Gather" }
func (g *gather) NumOutputs() int        { return 1 }
func (g *gather) Properties() Properties { return Properties{Linear: true} }
func (g *gather) AttrKey() string        { return fmt.Sprintf("axis=%d", g.axis) }
func (g *gather) FLOPs(in []tensor.Shape) int64 {
	return 0
}
func (g *gather) Mapping(in []tensor.Shape) MappingType { return OneToMany }

func (g *gather) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 2 {
		return nil, errInputs("Gather", "2", len(in))
	}
	data, idx := in[0], in[1]
	ax, ok := tensor.NormalizeAxis(g.axis, data.Rank())
	if !ok {
		return nil, fmt.Errorf("Gather: axis %d out of range for %v", g.axis, data)
	}
	out := make(tensor.Shape, 0, data.Rank()-1+idx.Rank())
	out = append(out, data[:ax]...)
	out = append(out, idx...)
	out = append(out, data[ax+1:]...)
	return []tensor.Shape{out}, nil
}

func (g *gather) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("Gather: output %d out of range", outNo)
	}
	if len(ins) != 2 {
		return nil, errInputs("Gather", "2", len(ins))
	}
	shapes := []tensor.Shape{ins[0].Shape(), ins[1].Shape()}
	outs, err := g.InferShapes(shapes)
	if err != nil {
		return nil, err
	}
	ax, _ := tensor.NormalizeAxis(g.axis, shapes[0].Rank())
	return pulled(ins, func(ins []Source) Source {
		return &gatherSource{
			shape:   outs[0],
			data:    ins[0],
			index:   ins[1],
			axis:    ax,
			axisDim: shapes[0][ax],
			dBuf:    make([]int, shapes[0].Rank()),
			iBuf:    make([]int, shapes[1].Rank()),
			idxLen:  shapes[1].Rank(),
		}
	}), nil
}

type gatherSource struct {
	shape tensor.Shape
	data  Source
	index Source
	axis  int
	// axisDim is the gathered-axis length, hoisted from Load so negative
	// indices resolve without re-querying the data source's shape.
	axisDim int
	dBuf    []int
	iBuf    []int
	idxLen  int
}

func (s *gatherSource) Shape() tensor.Shape { return s.shape }

func (s *gatherSource) Load(o []int) float32 {
	copy(s.iBuf, o[s.axis:s.axis+s.idxLen])
	gi := int(s.index.Load(s.iBuf))
	if gi < 0 {
		gi += s.axisDim
	}
	copy(s.dBuf[:s.axis], o[:s.axis])
	s.dBuf[s.axis] = gi
	copy(s.dBuf[s.axis+1:], o[s.axis+s.idxLen:])
	return s.data.Load(s.dBuf)
}
