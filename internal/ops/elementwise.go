package ops

import (
	"fmt"
	"math"

	"dnnfusion/internal/tensor"
)

// pointwise is the shared implementation of elementwise operators: the
// output element at idx is fn applied to the broadcast-aligned input
// elements. With equal input/output shapes this is the paper's One-to-One
// class; when any input is expanded by broadcasting it is classified
// One-to-Many ("Elementwise w/ broadcast" in Table 2).
type pointwise struct {
	name  string
	arity int
	fn    func(args []float32) float32
	// fn1/fn2 are the direct unary/binary forms of fn, set by
	// newUnary/newBinary: the blocked inner loop calls them without
	// staging an args slice per element, which is most of the remaining
	// per-element cost of a fused elementwise chain.
	fn1     func(float32) float32
	fn2     func(a, b float32) float32
	props   Properties
	attrKey string
	// flopsPerElem is usually 1 (the paper's Table 4 convention).
	flopsPerElem int64
	// attrs holds structured attributes for introspection (Attr), mirroring
	// the attrKey contents of parameterized operators (Clip, LeakyRelu,
	// AddConst, ...). nil for attribute-free operators.
	attrs map[string]any
}

func (p *pointwise) Type() string           { return p.name }
func (p *pointwise) NumOutputs() int        { return 1 }
func (p *pointwise) Properties() Properties { return p.props }
func (p *pointwise) AttrKey() string        { return p.attrKey }

func (p *pointwise) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != p.arity {
		return nil, errInputs(p.name, fmt.Sprint(p.arity), len(in))
	}
	out, err := tensor.BroadcastAll(in...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return []tensor.Shape{out}, nil
}

func (p *pointwise) Mapping(in []tensor.Shape) MappingType {
	if in == nil {
		return OneToOne
	}
	out, err := tensor.BroadcastAll(in...)
	if err != nil {
		return OneToOne
	}
	for _, s := range in {
		if tensor.IsBroadcastExpansion(s, out) {
			return OneToMany
		}
	}
	return OneToOne
}

func (p *pointwise) FLOPs(in []tensor.Shape) int64 {
	out, err := tensor.BroadcastAll(in...)
	if err != nil {
		return 0
	}
	return p.flopsPerElem * int64(out.NumElements())
}

func (p *pointwise) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("%s: output %d out of range", p.name, outNo)
	}
	if len(ins) != p.arity {
		return nil, errInputs(p.name, fmt.Sprint(p.arity), len(ins))
	}
	shapes := make([]tensor.Shape, len(ins))
	for i, s := range ins {
		shapes[i] = s.Shape()
	}
	out, err := tensor.BroadcastAll(shapes...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	mk := func(ins []Source) Source {
		src := &pointwiseSource{
			shape:    out,
			ins:      ins,
			inShapes: shapes,
			fn:       p.fn,
			args:     make([]float32, len(ins)),
			bufs:     make([][]int, len(ins)),
		}
		for i := range ins {
			src.bufs[i] = make([]int, shapes[i].Rank())
		}
		return src
	}
	if blk, ok := blockedPointwise(p, mk(ins).(*pointwiseSource)); ok {
		return blk, nil
	}
	return pulled(ins, mk), nil
}

// blockedPointwise upgrades a pointwise source to its blocked form:
// same-shape inputs stream directly, single-element inputs load once per
// block, suffix broadcasts (a [C] bias against [N,C]) stream periodically,
// and every other broadcast (a keepdims row statistic [N,1] against [N,C],
// a middle-axis expansion) streams through a stride-0 view of the input, so
// a lazily produced statistic is loaded once per covered row. ok is false
// only when an input has no blocked path (it is too large to stage).
func blockedPointwise(p *pointwise, s *pointwiseSource) (Source, bool) {
	ins := make([]pwBlockInput, len(s.ins))
	for i, in := range s.ins {
		inShape := s.inShapes[i]
		if inShape.NumElements() == 1 {
			// Loaded once per stripe: a lazily produced scalar (a full
			// reduction) is staged so that load is a memory read.
			if blk, isBlk := AsBlock(in); isBlk && !randomAccess(in) {
				in = newStaged(blk)
			}
			ins[i] = pwBlockInput{kind: pwScalar, src: in, idx: make([]int, inShape.Rank())}
			continue
		}
		period, ok := suffixPeriod(inShape, s.shape)
		if !ok {
			backing, l := layoutOf(in)
			in, period = newView(backing, l.expand(s.shape)), s.shape.NumElements()
		}
		blk, ok := AsBlock(in)
		if !ok {
			return nil, false
		}
		if period == s.shape.NumElements() {
			// Streaming input: alias flat backing directly (tensors,
			// arena views, reshaped weights) so the inner loop reads the
			// operand in place; only lazy producers stage into a buffer.
			if data, isFlat := FlatData(in); isFlat {
				ins[i] = pwBlockInput{kind: pwFlat, data: data}
				continue
			}
			ins[i] = pwBlockInput{kind: pwStream, blk: blk, buf: make([]float32, blockLen)}
			continue
		}
		ins[i] = pwBlockInput{kind: pwPeriod, blk: blk, period: period, buf: make([]float32, blockLen)}
	}
	return &pointwiseBlockSource{pointwiseSource: *s, fn1: p.fn1, fn2: p.fn2, blkIns: ins}, true
}

type pwInKind uint8

const (
	pwFlat   pwInKind = iota // flat-backed stream: read the backing in place
	pwStream                 // blocked producer: stage a stripe, flat order matches
	pwScalar                 // single-element input, loaded once per block
	pwPeriod                 // suffix broadcast: input repeats every period
)

type pwBlockInput struct {
	kind   pwInKind
	blk    BlockSource
	src    Source    // pwScalar only
	idx    []int     // pwScalar only: all-zero index scratch
	data   []float32 // pwFlat only: the operand's row-major backing
	period int
	val    float32
	buf    []float32
	// cur is the current stripe: an alias of data for pwFlat, the staged
	// buf otherwise. Set per stripe by LoadBlock.
	cur []float32
}

// source returns the source the blocked path reads this input from; orig is
// the operator's own input (what pwFlat aliases).
func (in *pwBlockInput) source(orig Source) Source {
	switch in.kind {
	case pwFlat:
		return orig
	case pwScalar:
		return in.src
	}
	return in.blk
}

// pointwiseBlockSource evaluates a fused elementwise chain over flat
// blockLen stripes: inputs are staged into per-input buffers (weights,
// arena views, and blocked producers stream without any index math), then
// the scalar function runs over the stripe — through the direct
// unary/binary form when the operator has one, so the common chain spends
// one call per element instead of staging an args slice. Load keeps the
// scalar semantics for the reference path.
type pointwiseBlockSource struct {
	pointwiseSource
	fn1    func(float32) float32
	fn2    func(a, b float32) float32
	blkIns []pwBlockInput
	// stripe is the streaming granularity: blockLen by default, rounded up
	// to a whole number of a heavy producer's row tiles by ApplySchedule so
	// the chain's staging loads keep the producer on its tiled path. span
	// is that producer tile span (0 when none), forwarded by TileSpan.
	stripe int
	span   int
}

func (s *pointwiseBlockSource) LoadBlock(dst []float32, off, n int) {
	stripe := s.stripe
	if stripe < 1 {
		stripe = blockLen
	}
	for n > 0 {
		c := n
		if c > stripe {
			c = stripe
		}
		for i := range s.blkIns {
			in := &s.blkIns[i]
			switch in.kind {
			case pwFlat:
				in.cur = in.data[off : off+c]
			case pwStream:
				in.blk.LoadBlock(in.buf[:c], off, c)
				in.cur = in.buf[:c]
			case pwScalar:
				in.val = in.src.Load(in.idx)
			case pwPeriod:
				loadPeriodic(in.blk, in.buf[:c], off, in.period)
				in.cur = in.buf[:c]
			}
		}
		s.evalStripe(dst[:c], c)
		dst = dst[c:]
		off += c
		n -= c
	}
}

// evalStripe applies the operator to one staged stripe of c elements.
func (s *pointwiseBlockSource) evalStripe(dst []float32, c int) {
	switch {
	case s.fn1 != nil:
		in := &s.blkIns[0]
		if in.kind == pwScalar {
			v := s.fn1(in.val)
			for j := 0; j < c; j++ {
				dst[j] = v
			}
			return
		}
		buf := in.cur
		for j := 0; j < c; j++ {
			dst[j] = s.fn1(buf[j])
		}
	case s.fn2 != nil:
		a, b := &s.blkIns[0], &s.blkIns[1]
		switch {
		case a.kind == pwScalar && b.kind == pwScalar:
			v := s.fn2(a.val, b.val)
			for j := 0; j < c; j++ {
				dst[j] = v
			}
		case a.kind == pwScalar:
			av, bb := a.val, b.cur
			for j := 0; j < c; j++ {
				dst[j] = s.fn2(av, bb[j])
			}
		case b.kind == pwScalar:
			ab, bv := a.cur, b.val
			for j := 0; j < c; j++ {
				dst[j] = s.fn2(ab[j], bv)
			}
		default:
			ab, bb := a.cur, b.cur
			for j := 0; j < c; j++ {
				dst[j] = s.fn2(ab[j], bb[j])
			}
		}
	default:
		args := s.args
		for j := 0; j < c; j++ {
			for i := range s.blkIns {
				in := &s.blkIns[i]
				if in.kind == pwScalar {
					args[i] = in.val
				} else {
					args[i] = in.cur[j]
				}
			}
			dst[j] = s.fn(args)
		}
	}
}

// ScalarFunc exposes the elementwise function for code generation.
func (p *pointwise) ScalarFunc() func(args []float32) float32 { return p.fn }

// Arity returns the number of inputs of the pointwise operator.
func (p *pointwise) Arity() int { return p.arity }

// Pointwise is implemented by elementwise operators; the code generator uses
// it when composing One-to-One operators into fused scalar expressions.
type Pointwise interface {
	ScalarFunc() func(args []float32) float32
	Arity() int
}

type pointwiseSource struct {
	shape tensor.Shape
	ins   []Source
	// inShapes are the input shapes hoisted at Virtualize time so Load
	// never re-queries them.
	inShapes []tensor.Shape
	fn       func(args []float32) float32
	args     []float32
	bufs     [][]int
}

func (s *pointwiseSource) Shape() tensor.Shape { return s.shape }

func (s *pointwiseSource) Load(idx []int) float32 {
	for i, in := range s.ins {
		b := tensor.BroadcastIndex(idx, s.inShapes[i], s.bufs[i])
		s.args[i] = in.Load(b)
	}
	return s.fn(s.args)
}

// --- Unary operators -------------------------------------------------------

func newUnary(name string, f func(float32) float32, props Properties) Operator {
	return &pointwise{
		name:         name,
		arity:        1,
		fn:           func(a []float32) float32 { return f(a[0]) },
		fn1:          f,
		props:        props,
		flopsPerElem: 1,
	}
}

func f64(f func(float64) float64) func(float32) float32 {
	return func(x float32) float32 { return float32(f(float64(x))) }
}

var linear = Properties{Linear: true}

// Unary elementwise operator constructors (One-to-One in Table 2).
func NewRelu() Operator {
	return newUnary("Relu", func(x float32) float32 { return maxf(x, 0) }, Properties{})
}
func NewAbs() Operator {
	return newUnary("Abs", func(x float32) float32 { return absf(x) }, Properties{})
}
func NewNeg() Operator   { return newUnary("Neg", func(x float32) float32 { return -x }, linear) }
func NewExp() Operator   { return newUnary("Exp", f64(math.Exp), Properties{}) }
func NewLog() Operator   { return newUnary("Log", f64(math.Log), Properties{}) }
func NewSqrt() Operator  { return newUnary("Sqrt", f64(math.Sqrt), Properties{}) }
func NewErf() Operator   { return newUnary("Erf", f64(math.Erf), Properties{}) }
func NewSin() Operator   { return newUnary("Sin", f64(math.Sin), Properties{}) }
func NewCos() Operator   { return newUnary("Cos", f64(math.Cos), Properties{}) }
func NewAsin() Operator  { return newUnary("Asin", f64(math.Asin), Properties{}) }
func NewTanh() Operator  { return newUnary("Tanh", f64(math.Tanh), Properties{}) }
func NewCeil() Operator  { return newUnary("Ceil", f64(math.Ceil), Properties{}) }
func NewFloor() Operator { return newUnary("Floor", f64(math.Floor), Properties{}) }
func NewRound() Operator { return newUnary("Round", f64(math.RoundToEven), Properties{}) }
func NewSquare() Operator {
	return newUnary("Square", func(x float32) float32 { return x * x }, Properties{})
}
func NewReciprocal() Operator {
	return newUnary("Reciprocal", func(x float32) float32 { return 1 / x }, Properties{})
}
func NewSigmoid() Operator {
	return newUnary("Sigmoid", func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	}, Properties{})
}
func NewSoftplus() Operator {
	return newUnary("Softplus", func(x float32) float32 {
		return float32(math.Log1p(math.Exp(float64(x))))
	}, Properties{})
}
func NewNot() Operator {
	return newUnary("Not", func(x float32) float32 {
		if x == 0 {
			return 1
		}
		return 0
	}, Properties{})
}

// NewIdentity returns the no-op operator (used when rewrites eliminate work).
func NewIdentity() Operator {
	op := newUnary("Identity", func(x float32) float32 { return x }, linear).(*pointwise)
	op.flopsPerElem = 0
	return op
}

// NewCast models ONNX Cast; with a single float32 dtype it is an identity
// but is kept as a distinct One-to-One operator as in Table 2.
func NewCast() Operator {
	op := newUnary("Cast", func(x float32) float32 { return x }, linear).(*pointwise)
	op.flopsPerElem = 0
	return op
}

// NewLeakyRelu returns LeakyRelu with the given negative slope.
func NewLeakyRelu(alpha float32) Operator {
	op := newUnary("LeakyRelu", func(x float32) float32 {
		if x < 0 {
			return alpha * x
		}
		return x
	}, Properties{}).(*pointwise)
	op.attrKey = fmt.Sprintf("alpha=%g", alpha)
	op.attrs = map[string]any{"alpha": alpha}
	return op
}

// NewClip clamps elements into [min, max].
func NewClip(min, max float32) Operator {
	op := newUnary("Clip", func(x float32) float32 {
		return minf(maxf(x, min), max)
	}, Properties{}).(*pointwise)
	op.attrKey = fmt.Sprintf("min=%g,max=%g", min, max)
	op.attrs = map[string]any{"min": min, "max": max}
	return op
}

// NewBitShift shifts the integer value of each element left (positive k) or
// right (negative k) by |k| bits; on float data this is an exact multiply or
// divide by 2^|k|. Left shift is linear, which is what licenses the paper's
// ReduceSum(BitShift(A)) → BitShift(ReduceSum(A)) commutation.
func NewBitShift(k int) Operator {
	scale := float32(1)
	for i := 0; i < k; i++ {
		scale *= 2
	}
	for i := 0; i > k; i-- {
		scale /= 2
	}
	op := newUnary("BitShift", func(x float32) float32 { return x * scale }, linear).(*pointwise)
	op.attrKey = fmt.Sprintf("k=%d", k)
	return op
}

// NewPowConst raises each element to a constant power (Pow with a scalar
// exponent, the form transformer LayerNorm decompositions use).
func NewPowConst(p float32) Operator {
	op := newUnary("Pow", func(x float32) float32 {
		if p == 2 {
			return x * x
		}
		return float32(math.Pow(float64(x), float64(p)))
	}, Properties{}).(*pointwise)
	op.attrKey = fmt.Sprintf("p=%g", p)
	op.attrs = map[string]any{"p": p}
	return op
}

// NewAddConst adds a scalar constant elementwise (e.g. the "+1" produced by
// the distributive rewrite A + A⊙B → A⊙(B+1)).
func NewAddConst(c float32) Operator {
	op := newUnary("AddConst", func(x float32) float32 { return x + c }, linear).(*pointwise)
	op.attrKey = fmt.Sprintf("c=%g", c)
	op.attrs = map[string]any{"c": c}
	return op
}

// NewMulConst multiplies by a scalar constant elementwise.
func NewMulConst(c float32) Operator {
	op := newUnary("MulConst", func(x float32) float32 { return x * c }, linear).(*pointwise)
	op.attrKey = fmt.Sprintf("c=%g", c)
	op.attrs = map[string]any{"c": c}
	return op
}

// --- Binary and ternary operators ------------------------------------------

func newBinary(name string, f func(a, b float32) float32, props Properties) Operator {
	return &pointwise{
		name:         name,
		arity:        2,
		fn:           func(a []float32) float32 { return f(a[0], a[1]) },
		fn2:          f,
		props:        props,
		flopsPerElem: 1,
	}
}

var (
	addProps = Properties{Associative: true, Commutative: true, Linear: true}
	mulProps = Properties{Associative: true, Commutative: true, Distributive: true}
)

func NewAdd() Operator {
	return newBinary("Add", func(a, b float32) float32 { return a + b }, addProps)
}
func NewSub() Operator {
	return newBinary("Sub", func(a, b float32) float32 { return a - b }, Properties{Linear: true})
}
func NewMul() Operator {
	return newBinary("Mul", func(a, b float32) float32 { return a * b }, mulProps)
}
func NewDiv() Operator {
	return newBinary("Div", func(a, b float32) float32 { return a / b }, Properties{})
}
func NewMin() Operator {
	return newBinary("Min", minf, Properties{Associative: true, Commutative: true})
}
func NewMax() Operator {
	return newBinary("Max", maxf, Properties{Associative: true, Commutative: true})
}
func NewPow() Operator {
	return newBinary("PowT", func(a, b float32) float32 {
		return float32(math.Pow(float64(a), float64(b)))
	}, Properties{})
}
func NewGreater() Operator {
	return newBinary("Greater", func(a, b float32) float32 {
		if a > b {
			return 1
		}
		return 0
	}, Properties{})
}
func NewEqual() Operator {
	return newBinary("Equal", func(a, b float32) float32 {
		if a == b {
			return 1
		}
		return 0
	}, Properties{Commutative: true})
}

// NewPRelu is the parametric Relu: x when x>=0, slope*x otherwise, with the
// slope tensor broadcast against x.
func NewPRelu() Operator {
	return newBinary("PRelu", func(x, s float32) float32 {
		if x < 0 {
			return s * x
		}
		return x
	}, Properties{})
}

// NewWhere selects elementwise between two tensors by a 0/1 condition.
func NewWhere() Operator {
	return &pointwise{
		name:  "Where",
		arity: 3,
		fn: func(a []float32) float32 {
			if a[0] != 0 {
				return a[1]
			}
			return a[2]
		},
		flopsPerElem: 1,
	}
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func absf(a float32) float32 {
	if a < 0 {
		return -a
	}
	return a
}
