// Package ops implements the DNN operator library underlying DNNFusion.
//
// Every operator carries the metadata the paper's compiler passes need:
//
//   - a mapping type (Table 2): One-to-One, One-to-Many, Many-to-Many,
//     Reorganize, or Shuffle, describing the input→output element mapping;
//   - mathematical properties (associative / commutative / distributive /
//     linear) used by the graph-rewriting pass;
//   - shape inference and FLOPs estimation used by the fusion planner and
//     the device cost model;
//   - a Virtualize hook that builds a lazy, pull-model Source for its
//     output. Fused kernels are compositions of Sources: only fusion-block
//     boundaries are ever materialized, which is exactly the intermediate-
//     result elimination operator fusion is after.
//
// The reference (unfused) evaluation of an operator is derived from
// Virtualize by materializing each output, so fused and unfused execution
// share one semantics definition and can be checked against each other.
package ops

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// MappingType classifies the input/output element mapping of an operator
// (paper §3.1, Table 2). The order of the constants is the paper's
// "transformation impedance" complexity order (footnote 1): One-to-One <
// Reorganize < Shuffle < One-to-Many < Many-to-Many.
type MappingType int

const (
	// OneToOne maps each output element to exactly one input element per
	// input (e.g. Add, Relu, Concat, Slice).
	OneToOne MappingType = iota
	// Reorganize changes dimensionality without reordering data
	// (Reshape, Flatten, Squeeze, Unsqueeze).
	Reorganize
	// Shuffle permutes data order (Transpose, DepthToSpace, SpaceToDepth).
	Shuffle
	// OneToMany maps one input element to several output elements
	// (Expand, Gather, Resize, broadcast elementwise).
	OneToMany
	// ManyToMany maps several input elements to each output element
	// (Conv, GEMM, Pool, Reduce, Softmax); includes Many-to-One.
	ManyToMany
)

var mappingNames = [...]string{"One-to-One", "Reorganize", "Shuffle", "One-to-Many", "Many-to-Many"}

func (m MappingType) String() string {
	if m < 0 || int(m) >= len(mappingNames) {
		return fmt.Sprintf("MappingType(%d)", int(m))
	}
	return mappingNames[m]
}

// AllMappingTypes lists the five types in impedance order.
func AllMappingTypes() []MappingType {
	return []MappingType{OneToOne, Reorganize, Shuffle, OneToMany, ManyToMany}
}

// Properties are the mathematical properties graph rewriting exploits
// (paper §4.2). An operator with none of them set acts as a partition point
// for the rewrite engine's pattern search.
type Properties struct {
	// Associative: op(op(a,b),c) == op(a,op(b,c)) (Add, Mul, Min, Max).
	Associative bool
	// Commutative: op(a,b) == op(b,a).
	Commutative bool
	// Distributive: a⊙(b+c) == a⊙b + a⊙c holds with this op as ⊙ (Mul).
	Distributive bool
	// Linear: the op commutes with addition and scalar multiplication
	// (Neg, left BitShift, ReduceSum, ReduceMean, Transpose, Reshape...),
	// enabling the commutative-family rewrites such as
	// ReduceSum(BitShift(A)) → BitShift(ReduceSum(A)).
	Linear bool
}

// None reports whether no property is set (rewrite partition point).
func (p Properties) None() bool {
	return !p.Associative && !p.Commutative && !p.Distributive && !p.Linear
}

// Source provides the elements of a logical tensor by index. Materialized
// tensors, lazy views over other Sources, and fused operator pipelines all
// implement it; fused kernels are Source compositions that are only
// materialized at fusion-block boundaries.
//
// Load may use internal scratch buffers, so Sources are not safe for
// concurrent use. The index slice passed to Load is owned by the caller and
// must not be retained.
type Source interface {
	Shape() tensor.Shape
	Load(idx []int) float32
}

// Operator is a single DNN operator instance (type + attributes).
type Operator interface {
	// Type returns the ONNX-style operator name, e.g. "Conv".
	Type() string
	// NumOutputs returns how many output tensors the operator produces.
	NumOutputs() int
	// InferShapes computes output shapes from input shapes.
	InferShapes(in []tensor.Shape) ([]tensor.Shape, error)
	// Mapping classifies the operator per Table 2. For shape-sensitive
	// operators (elementwise with broadcasting) the classification uses
	// the given input shapes; in == nil returns the canonical
	// classification used in the paper's Table 2.
	Mapping(in []tensor.Shape) MappingType
	// FLOPs estimates the floating-point operations for the given input
	// shapes, following the paper's conventions (one FLOP per produced
	// element for elementwise operators, zero for pure data movement).
	FLOPs(in []tensor.Shape) int64
	// Properties reports the operator's mathematical properties.
	Properties() Properties
	// Virtualize builds a lazy Source computing output outNo over the
	// given input Sources. The input shapes must already be valid for
	// this operator.
	Virtualize(ins []Source, outNo int) (Source, error)
	// AttrKey returns a stable encoding of the operator's attributes,
	// used for kernel-cache and profile-database keys.
	AttrKey() string
}

// tensorSource adapts a materialized tensor to the Source interface.
type tensorSource struct{ t *tensor.Tensor }

func (s tensorSource) Shape() tensor.Shape    { return s.t.Shape() }
func (s tensorSource) Load(idx []int) float32 { return s.t.At(idx...) }

// LoadBlock copies a contiguous run of the tensor's row-major data;
// materialized tensors are the leaves every blocked fast path bottoms out
// in.
func (s tensorSource) LoadBlock(dst []float32, off, n int) {
	copy(dst, s.t.Data()[off:off+n])
}

// AsSource wraps a materialized tensor as a Source.
func AsSource(t *tensor.Tensor) Source { return tensorSource{t} }

// AsTensor unwraps a Source created by AsSource, or returns nil.
func AsTensor(s Source) *tensor.Tensor {
	if ts, ok := s.(tensorSource); ok {
		return ts.t
	}
	return nil
}

// Materialize evaluates src into a freshly allocated tensor.
func Materialize(src Source) *tensor.Tensor {
	if t := AsTensor(src); t != nil {
		return t.Clone()
	}
	out := tensor.NewOf(src.Shape())
	MaterializeInto(src, out, make([]int, src.Shape().Rank()))
	return out
}

// MaterializeRange evaluates elements [lo, hi) of src's row-major order
// into dst.Data()[lo:hi] through src's LoadBlock. Every source Virtualize
// composes has one (see BlockSource); the per-element tree-walk at the end
// serves a foreign Source implementation only, with idx as caller-owned
// scratch of at least src's rank. This is the executor's inner loop: the
// parallel executor covers an output by calling it on disjoint ranges from
// different workers, each with its own Source tree and idx.
func MaterializeRange(src Source, dst *tensor.Tensor, idx []int, lo, hi int) {
	if hi <= lo {
		return
	}
	data := dst.Data()[lo:hi]
	if t := AsTensor(src); t != nil {
		copy(data, t.Data()[lo:hi])
		return
	}
	if blk, ok := AsBlock(src); ok {
		blk.LoadBlock(data, lo, hi-lo)
		return
	}
	shape := src.Shape()
	idx = idx[:shape.Rank()]
	shape.Unravel(lo, idx)
	for i := range data {
		data[i] = src.Load(idx)
		incIndex(shape, idx)
	}
}

// MaterializeInto evaluates src into dst, whose shape must equal src's,
// one scalar Load per element. It deliberately ignores blocked fast paths:
// this is the reference (oracle) evaluation order that LoadBlock
// implementations are checked against. idx is caller-owned scratch of at
// least src's rank, so a caller that reuses dst and idx across evaluations
// performs no allocation here; Sources themselves must not allocate per
// Load for that to hold.
func MaterializeInto(src Source, dst *tensor.Tensor, idx []int) {
	if t := AsTensor(src); t != nil {
		copy(dst.Data(), t.Data())
		return
	}
	shape := src.Shape()
	data := dst.Data()
	idx = idx[:shape.Rank()]
	for off := range data {
		shape.Unravel(off, idx)
		data[off] = src.Load(idx)
	}
}

// Eval runs op on materialized inputs, returning materialized outputs.
// This is the reference (unfused) execution path.
func Eval(op Operator, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	srcs := make([]Source, len(ins))
	shapes := make([]tensor.Shape, len(ins))
	for i, t := range ins {
		srcs[i] = AsSource(t)
		shapes[i] = t.Shape()
	}
	if _, err := op.InferShapes(shapes); err != nil {
		return nil, fmt.Errorf("ops: %s shape inference: %w", op.Type(), err)
	}
	outs := make([]*tensor.Tensor, op.NumOutputs())
	for o := range outs {
		src, err := op.Virtualize(srcs, o)
		if err != nil {
			return nil, fmt.Errorf("ops: %s virtualize: %w", op.Type(), err)
		}
		outs[o] = Materialize(src)
	}
	return outs, nil
}

// Eval1 is Eval for the common single-output case.
func Eval1(op Operator, ins ...*tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := Eval(op, ins)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Key returns the stable identity of an operator instance: its type plus
// attribute encoding. Two operators with equal Keys have identical semantics.
func Key(op Operator) string {
	a := op.AttrKey()
	if a == "" {
		return op.Type()
	}
	return op.Type() + "[" + a + "]"
}

func shapesString(shapes []tensor.Shape) string {
	out := ""
	for i, s := range shapes {
		if i > 0 {
			out += ","
		}
		out += s.String()
	}
	return out
}

func errInputs(op string, want string, got int) error {
	return fmt.Errorf("ops: %s expects %s inputs, got %d", op, want, got)
}
