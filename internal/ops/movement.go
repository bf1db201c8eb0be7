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
// An operator states its index transform one of two ways. Those whose
// transform is affine per dimension (Reshape, Flatten, Squeeze, Unsqueeze,
// Transpose, Slice, Split, Expand) give view, a rewrite of the input's
// strided layout, and virtualize to a view (view.go) that composes with any
// view beneath it. The rest (DepthToSpace, SpaceToDepth, Concat, Resize)
// give mapIndex and virtualize to a pull-model source over staged operands.
type movement struct {
	name       string
	arity      int // -1 for variadic (Concat)
	numOutputs int
	mapping    MappingType
	attrKey    string
	props      Properties
	infer      func(in []tensor.Shape) ([]tensor.Shape, error)
	// view rewrites the layout of input 0 into the layout of output outNo
	// (whose inferred shape is out). ok is false when the output order is not
	// a strided view of the input's memory (a Reshape across a transposed
	// dimension); the output then views the input source itself, densely.
	view func(l layout, outNo int, out tensor.Shape) (vl layout, ok bool)
	// mapIndex maps an index of output outNo to (input number, input index).
	// dst is scratch of the selected input's rank.
	mapIndex func(in []tensor.Shape, outNo int, outIdx []int, dst []int) (int, []int)
	// attrs holds structured attributes for rewrite-rule inspection.
	attrs map[string]any
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
func (m *movement) Properties() Properties { return m.props }
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

// IndexMapper is implemented by data-movement operators. The code generator
// uses it to fold movement into index arithmetic instead of materializing
// (intra-block optimization, Figure 5).
type IndexMapper interface {
	MapIndex(in []tensor.Shape, outNo int, outIdx []int, dst []int) (int, []int)
}

func (m *movement) MapIndex(in []tensor.Shape, outNo int, outIdx []int, dst []int) (int, []int) {
	if m.mapIndex != nil {
		return m.mapIndex(in, outNo, outIdx, dst)
	}
	outs, err := m.infer(in)
	if err != nil {
		panic(fmt.Sprintf("%s: MapIndex over invalid input shapes: %v", m.name, err))
	}
	l, ok := m.view(contiguousLayout(in[0]), outNo, outs[outNo])
	if !ok {
		l = contiguousLayout(outs[outNo])
	}
	off := l.base
	for d, i := range outIdx {
		off += i * l.strides[d]
	}
	return 0, in[0].Unravel(off, dst[:in[0].Rank()])
}

func (m *movement) Virtualize(ins []Source, outNo int) (Source, error) {
	if err := m.checkArity(len(ins)); err != nil {
		return nil, err
	}
	if outNo < 0 || outNo >= m.numOutputs {
		return nil, fmt.Errorf("%s: output %d out of range", m.name, outNo)
	}
	shapes := make([]tensor.Shape, len(ins))
	maxRank := 0
	for i, s := range ins {
		shapes[i] = s.Shape()
		if r := s.Shape().Rank(); r > maxRank {
			maxRank = r
		}
	}
	outs, err := m.infer(shapes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.name, err)
	}
	if m.view != nil {
		backing, l := layoutOf(ins[0])
		if vl, ok := m.view(l, outNo, outs[outNo]); ok {
			return newView(backing, vl), nil
		}
		return newView(ins[0], contiguousLayout(outs[outNo])), nil
	}
	return pulled(ins, func(ins []Source) Source {
		return &movementSource{
			op:    m,
			shape: outs[outNo],
			outNo: outNo,
			ins:   ins,
			inSh:  shapes,
			buf:   make([]int, maxRank),
		}
	}), nil
}

// movementSource is the scalar form of the movement operators without a
// strided-view form: each Load maps the output index to one input element.
type movementSource struct {
	op    *movement
	shape tensor.Shape
	outNo int
	ins   []Source
	inSh  []tensor.Shape
	buf   []int
}

func (s *movementSource) Shape() tensor.Shape { return s.shape }

func (s *movementSource) Load(idx []int) float32 {
	sel, inIdx := s.op.mapIndex(s.inSh, s.outNo, idx, s.buf)
	return s.ins[sel].Load(inIdx)
}

// reorganize builds a Reorganize-class operator given its shape function:
// the flat order is unchanged, so the output is the input's layout re-split.
func reorganize(name, attrKey string, infer func(tensor.Shape) (tensor.Shape, error)) Operator {
	m := &movement{
		name:       name,
		arity:      1,
		numOutputs: 1,
		mapping:    Reorganize,
		attrKey:    attrKey,
		props:      Properties{Linear: true},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		out, err := infer(in[0])
		if err != nil {
			return nil, err
		}
		return []tensor.Shape{out}, nil
	}
	m.view = func(l layout, _ int, out tensor.Shape) (layout, bool) { return l.reshape(out) }
	return m
}

// NewReshape reshapes to the target shape; one dimension may be -1 to infer.
func NewReshape(target ...int) Operator {
	t := tensor.Shape(target).Clone()
	op := reorganize("Reshape", fmt.Sprintf("shape=%v", t), func(in tensor.Shape) (tensor.Shape, error) {
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
	}).(*movement)
	op.attrs = map[string]any{"shape": []int(t)}
	return op
}

// NewFlatten flattens into a 2-D tensor splitting at axis.
func NewFlatten(axis int) Operator {
	op := reorganize("Flatten", fmt.Sprintf("axis=%d", axis), func(in tensor.Shape) (tensor.Shape, error) {
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
	}).(*movement)
	op.attrs = map[string]any{"axis": axis}
	return op
}

// NewSqueeze removes the given size-1 axes (all size-1 axes if none given).
func NewSqueeze(axes ...int) Operator {
	ax := append([]int{}, axes...)
	op := reorganize("Squeeze", fmt.Sprintf("axes=%v", axes), func(in tensor.Shape) (tensor.Shape, error) {
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
	}).(*movement)
	op.attrs = map[string]any{"axes": ax}
	return op
}

// NewUnsqueeze inserts size-1 dimensions at the given output axes.
func NewUnsqueeze(axes ...int) Operator {
	ax := append([]int{}, axes...)
	op := reorganize("Unsqueeze", fmt.Sprintf("axes=%v", axes), func(in tensor.Shape) (tensor.Shape, error) {
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
	}).(*movement)
	op.attrs = map[string]any{"axes": ax}
	return op
}

// NewTranspose permutes dimensions; output dim i is input dim perm[i].
func NewTranspose(perm ...int) Operator {
	p := append([]int(nil), perm...)
	m := &movement{
		name:       "Transpose",
		arity:      1,
		numOutputs: 1,
		mapping:    Shuffle,
		attrKey:    fmt.Sprintf("perm=%v", p),
		props:      Properties{Linear: true},
		attrs:      map[string]any{"perm": p},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		s := in[0]
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
		return []tensor.Shape{out}, nil
	}
	m.view = func(l layout, _ int, _ tensor.Shape) (layout, bool) { return l.transpose(p), true }
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
	m := &movement{
		name:       "DepthToSpace",
		arity:      1,
		numOutputs: 1,
		mapping:    Shuffle,
		attrKey:    fmt.Sprintf("block=%d", block),
		props:      Properties{Linear: true},
		attrs:      map[string]any{"block": block},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		s := in[0]
		if s.Rank() != 4 || s[1]%(block*block) != 0 {
			return nil, fmt.Errorf("DepthToSpace: invalid input %v for block %d", s, block)
		}
		return []tensor.Shape{tensor.Of(s[0], s[1]/(block*block), s[2]*block, s[3]*block)}, nil
	}
	m.mapIndex = func(in []tensor.Shape, _ int, o []int, dst []int) (int, []int) {
		cOut := in[0][1] / (block * block)
		h, bh := o[2]/block, o[2]%block
		w, bw := o[3]/block, o[3]%block
		d := dst[:4]
		d[0], d[1], d[2], d[3] = o[0], (bh*block+bw)*cOut+o[1], h, w
		return 0, d
	}
	return m
}

// NewSpaceToDepth rearranges spatial blocks into depth (NCHW).
func NewSpaceToDepth(block int) Operator {
	m := &movement{
		name:       "SpaceToDepth",
		arity:      1,
		numOutputs: 1,
		mapping:    Shuffle,
		attrKey:    fmt.Sprintf("block=%d", block),
		props:      Properties{Linear: true},
		attrs:      map[string]any{"block": block},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		s := in[0]
		if s.Rank() != 4 || s[2]%block != 0 || s[3]%block != 0 {
			return nil, fmt.Errorf("SpaceToDepth: invalid input %v for block %d", s, block)
		}
		return []tensor.Shape{tensor.Of(s[0], s[1]*block*block, s[2]/block, s[3]/block)}, nil
	}
	m.mapIndex = func(in []tensor.Shape, _ int, o []int, dst []int) (int, []int) {
		cIn := in[0][1]
		blk := o[1] / cIn
		bh, bw := blk/block, blk%block
		d := dst[:4]
		d[0], d[1], d[2], d[3] = o[0], o[1]%cIn, o[2]*block+bh, o[3]*block+bw
		return 0, d
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
	m := &movement{
		name:       "Slice",
		arity:      1,
		numOutputs: 1,
		mapping:    OneToOne,
		attrKey:    fmt.Sprintf("axes=%v,starts=%v,ends=%v", ax, st, en),
		props:      Properties{Linear: true},
		attrs:      map[string]any{"axes": ax, "starts": st, "ends": en},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		_, sizes, err := resolve(in[0])
		if err != nil {
			return nil, err
		}
		return []tensor.Shape{sizes}, nil
	}
	m.view = func(l layout, _ int, out tensor.Shape) (layout, bool) {
		starts, _, _ := resolve(l.shape) // infer already accepted this shape
		return l.slice(starts, out), true
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
		props:      Properties{Linear: true},
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
	m.view = func(l layout, outNo int, out tensor.Shape) (layout, bool) {
		na, _ := tensor.NormalizeAxis(axis, len(l.shape))
		starts := make([]int, len(l.shape))
		for i := 0; i < outNo; i++ {
			starts[na] += sz[i]
		}
		return l.slice(starts, out), true
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
		props:      Properties{Linear: true},
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
	m.mapIndex = func(in []tensor.Shape, _ int, o []int, dst []int) (int, []int) {
		na, _ := tensor.NormalizeAxis(axis, in[0].Rank())
		pos := o[na]
		for sel, s := range in {
			if pos < s[na] {
				d := dst[:len(o)]
				copy(d, o)
				d[na] = pos
				return sel, d
			}
			pos -= s[na]
		}
		panic("Concat: index out of range")
	}
	return m
}

// NewExpand broadcasts the input to the target shape (One-to-Many).
func NewExpand(target ...int) Operator {
	t := tensor.Shape(target).Clone()
	m := &movement{
		name:       "Expand",
		arity:      1,
		numOutputs: 1,
		mapping:    OneToMany,
		attrKey:    fmt.Sprintf("shape=%v", t),
		props:      Properties{Linear: true},
		attrs:      map[string]any{"shape": []int(t)},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		out, err := tensor.BroadcastShapes(in[0], t)
		if err != nil {
			return nil, fmt.Errorf("Expand: %w", err)
		}
		if !out.Equal(t) {
			return nil, fmt.Errorf("Expand: input %v does not broadcast to %v", in[0], t)
		}
		return []tensor.Shape{out}, nil
	}
	m.view = func(l layout, _ int, out tensor.Shape) (layout, bool) { return l.expand(out), true }
	return m
}

// NewResize scales spatial dimensions by integer factors using
// nearest-neighbor interpolation (mode used by the paper's detection
// models). scales has one entry per input dimension.
func NewResize(scales ...int) Operator {
	sc := append([]int(nil), scales...)
	m := &movement{
		name:       "Resize",
		arity:      1,
		numOutputs: 1,
		mapping:    OneToMany,
		attrKey:    fmt.Sprintf("scales=%v", sc),
		props:      Properties{Linear: true},
		attrs:      map[string]any{"scales": sc},
	}
	m.infer = func(in []tensor.Shape) ([]tensor.Shape, error) {
		s := in[0]
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
		return []tensor.Shape{out}, nil
	}
	m.mapIndex = func(in []tensor.Shape, _ int, o []int, dst []int) (int, []int) {
		d := dst[:len(o)]
		for i := range o {
			d[i] = o[i] / sc[i]
		}
		return 0, d
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
