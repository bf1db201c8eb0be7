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
	// newUnary/newBinary: the generic stripe loop of a pointwiseProgram
	// calls them without staging an args slice per element.
	fn1 func(float32) float32
	fn2 func(a, b float32) float32
	// kind selects the operator's typed stripe loop in a pointwiseProgram
	// (program.go); kindGeneric operators run fn1/fn2/fn once per element.
	kind pwKind
	// The operator's constants, set by its constructor and read by the typed
	// loops, Attr and the typed accessors (introspect.go) alike: lo/hi are
	// Clip's bounds; c is LeakyRelu's alpha, AddConst's and MulConst's
	// constant, Pow's exponent and BitShift's factor 2^k; shift is
	// BitShift's k.
	lo, hi  float32
	c       float32
	shift   int
	props   Properties
	attrKey string
	// flopsPerElem is usually 1 (the paper's Table 4 convention).
	flopsPerElem int64
}

// pwKind names the pointwise operators that have a typed stripe loop.
type pwKind uint8

const (
	kindGeneric pwKind = iota
	kindAdd
	kindSub
	kindMul
	kindDiv
	kindMin
	kindMax
	kindNeg
	kindRelu
	kindAbs
	kindSquare
	kindReciprocal
	kindSqrt
	kindClip
	kindLeakyRelu
	kindAddConst
	kindMulConst
	kindIdentity
	kindExp
	kindSigmoid
	kindTanh
	kindErf
	// kindCount is the number of kinds; it stays last.
	kindCount
)

// attr returns the structured attribute Attr reports for key, read from the
// typed constants.
func (p *pointwise) attr(key string) any {
	switch p.name + "." + key {
	case "Clip.min":
		return p.lo
	case "Clip.max":
		return p.hi
	case "LeakyRelu.alpha", "AddConst.c", "MulConst.c", "Pow.p":
		return p.c
	case "BitShift.k":
		return p.shift
	}
	return nil
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
	if prog, ok := newPointwiseProgram(p, mk(ins).(*pointwiseSource)); ok {
		return prog, nil
	}
	return pulled(ins, mk), nil
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

func newUnary(name string, kind pwKind, f func(float32) float32, props Properties) *pointwise {
	return &pointwise{
		name:         name,
		arity:        1,
		fn:           func(a []float32) float32 { return f(a[0]) },
		fn1:          f,
		kind:         kind,
		props:        props,
		flopsPerElem: 1,
	}
}

// newMath is a unary operator evaluated by a float64 math function.
func newMath(name string, f func(float64) float64) Operator {
	return newUnary(name, kindGeneric, func(x float32) float32 { return float32(f(float64(x))) }, Properties{})
}

var linear = Properties{Linear: true}

// Unary elementwise operator constructors (One-to-One in Table 2).
func NewRelu() Operator {
	return newUnary("Relu", kindRelu, func(x float32) float32 { return maxf(x, 0) }, Properties{})
}
func NewAbs() Operator {
	return newUnary("Abs", kindAbs, absf, Properties{})
}
func NewNeg() Operator {
	return newUnary("Neg", kindNeg, func(x float32) float32 { return -x }, linear)
}
func NewLog() Operator   { return newMath("Log", math.Log) }
func NewSin() Operator   { return newMath("Sin", math.Sin) }
func NewCos() Operator   { return newMath("Cos", math.Cos) }
func NewAsin() Operator  { return newMath("Asin", math.Asin) }
func NewCeil() Operator  { return newMath("Ceil", math.Ceil) }
func NewFloor() Operator { return newMath("Floor", math.Floor) }
func NewRound() Operator { return newMath("Round", math.RoundToEven) }
func NewSquare() Operator {
	return newUnary("Square", kindSquare, func(x float32) float32 { return x * x }, Properties{})
}
func NewReciprocal() Operator {
	return newUnary("Reciprocal", kindReciprocal, func(x float32) float32 { return 1 / x }, Properties{})
}
func NewSqrt() Operator { return newUnary("Sqrt", kindSqrt, sqrtf, Properties{}) }

// sqrtf is the correctly rounded float32 square root (VSQRTPS's): rounding
// the float64 root of a float32 to float32 loses nothing to the double
// rounding, as 53 ≥ 2·24+2 bits.
func sqrtf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// The float32 transcendentals (transcendental.go): the closure and the typed
// program loop call the same function.
func NewExp() Operator     { return newUnary("Exp", kindExp, expf, Properties{}) }
func NewSigmoid() Operator { return newUnary("Sigmoid", kindSigmoid, sigmoid32, Properties{}) }
func NewTanh() Operator    { return newUnary("Tanh", kindTanh, tanh32, Properties{}) }
func NewErf() Operator     { return newUnary("Erf", kindErf, erf32, Properties{}) }
func NewSoftplus() Operator {
	return newUnary("Softplus", kindGeneric, func(x float32) float32 {
		return float32(math.Log1p(math.Exp(float64(x))))
	}, Properties{})
}
func NewNot() Operator {
	return newUnary("Not", kindGeneric, func(x float32) float32 {
		if x == 0 {
			return 1
		}
		return 0
	}, Properties{})
}

// NewIdentity returns the no-op operator (used when rewrites eliminate work).
func NewIdentity() Operator {
	op := newUnary("Identity", kindIdentity, func(x float32) float32 { return x }, linear)
	op.flopsPerElem = 0
	return op
}

// NewCast models ONNX Cast; with a single float32 dtype it is an identity
// but is kept as a distinct One-to-One operator as in Table 2.
func NewCast() Operator {
	op := newUnary("Cast", kindIdentity, func(x float32) float32 { return x }, linear)
	op.flopsPerElem = 0
	return op
}

// NewLeakyRelu returns LeakyRelu with the given negative slope.
func NewLeakyRelu(alpha float32) Operator {
	op := newUnary("LeakyRelu", kindLeakyRelu, func(x float32) float32 {
		if x < 0 {
			return alpha * x
		}
		return x
	}, Properties{})
	op.attrKey = fmt.Sprintf("alpha=%g", alpha)
	op.c = alpha
	return op
}

// NewClip clamps elements into [min, max].
func NewClip(min, max float32) Operator {
	op := newUnary("Clip", kindClip, func(x float32) float32 {
		return minf(maxf(x, min), max)
	}, Properties{})
	op.attrKey = fmt.Sprintf("min=%g,max=%g", min, max)
	op.lo, op.hi = min, max
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
	op := newUnary("BitShift", kindMulConst, func(x float32) float32 { return x * scale }, linear)
	op.attrKey = fmt.Sprintf("k=%d", k)
	op.c, op.shift = scale, k
	return op
}

// NewPowConst raises each element to a constant power (Pow with a scalar
// exponent, the form transformer LayerNorm decompositions use).
func NewPowConst(p float32) Operator {
	kind := kindGeneric
	if p == 2 {
		kind = kindSquare
	}
	op := newUnary("Pow", kind, func(x float32) float32 {
		if p == 2 {
			return x * x
		}
		return float32(math.Pow(float64(x), float64(p)))
	}, Properties{})
	op.attrKey = fmt.Sprintf("p=%g", p)
	op.c = p
	return op
}

// NewAddConst adds a scalar constant elementwise (e.g. the "+1" produced by
// the distributive rewrite A + A⊙B → A⊙(B+1)).
func NewAddConst(c float32) Operator {
	op := newUnary("AddConst", kindAddConst, func(x float32) float32 { return x + c }, linear)
	op.attrKey = fmt.Sprintf("c=%g", c)
	op.c = c
	return op
}

// NewMulConst multiplies by a scalar constant elementwise.
func NewMulConst(c float32) Operator {
	op := newUnary("MulConst", kindMulConst, func(x float32) float32 { return x * c }, linear)
	op.attrKey = fmt.Sprintf("c=%g", c)
	op.c = c
	return op
}

// --- Binary and ternary operators ------------------------------------------

func newBinary(name string, kind pwKind, f func(a, b float32) float32, props Properties) Operator {
	return &pointwise{
		name:         name,
		arity:        2,
		fn:           func(a []float32) float32 { return f(a[0], a[1]) },
		fn2:          f,
		kind:         kind,
		props:        props,
		flopsPerElem: 1,
	}
}

var (
	addProps = Properties{Associative: true, Commutative: true, Linear: true}
	mulProps = Properties{Associative: true, Commutative: true, Distributive: true}
)

func NewAdd() Operator {
	return newBinary("Add", kindAdd, func(a, b float32) float32 { return a + b }, addProps)
}
func NewSub() Operator {
	return newBinary("Sub", kindSub, func(a, b float32) float32 { return a - b }, Properties{Linear: true})
}
func NewMul() Operator {
	return newBinary("Mul", kindMul, func(a, b float32) float32 { return a * b }, mulProps)
}
func NewDiv() Operator {
	return newBinary("Div", kindDiv, func(a, b float32) float32 { return a / b }, Properties{})
}
func NewMin() Operator {
	return newBinary("Min", kindMin, minf, Properties{Associative: true, Commutative: true})
}
func NewMax() Operator {
	return newBinary("Max", kindMax, maxf, Properties{Associative: true, Commutative: true})
}
func NewPow() Operator {
	return newBinary("PowT", kindGeneric, func(a, b float32) float32 {
		return float32(math.Pow(float64(a), float64(b)))
	}, Properties{})
}
func NewGreater() Operator {
	return newBinary("Greater", kindGeneric, func(a, b float32) float32 {
		if a > b {
			return 1
		}
		return 0
	}, Properties{})
}
func NewEqual() Operator {
	return newBinary("Equal", kindGeneric, func(a, b float32) float32 {
		if a == b {
			return 1
		}
		return 0
	}, Properties{Commutative: true})
}

// NewPRelu is the parametric Relu: x when x>=0, slope*x otherwise, with the
// slope tensor broadcast against x.
func NewPRelu() Operator {
	return newBinary("PRelu", kindGeneric, func(x, s float32) float32 {
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

// absf is IEEE |a|: a with its sign bit cleared, so −0 gives +0 and a NaN
// keeps its payload with the sign bit clear.
func absf(a float32) float32 {
	return math.Float32frombits(math.Float32bits(a) &^ (1 << 31))
}
