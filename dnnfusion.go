// Package dnnfusion is the public API of the DNNFusion reproduction: an
// operator-fusion compiler for DNN inference (Niu et al., PLDI 2021,
// "DNNFusion: Accelerating Deep Neural Networks Execution with Advanced
// Operator Fusion") together with the substrates its evaluation needs — an
// operator library, a graph IR, a graph-rewriting engine, fusion plan
// exploration, fused-kernel code generation, a mobile-SoC simulator, the
// baseline frameworks it is compared against, and the 15-model zoo.
//
// # Quick start
//
// Build a graph, compile it once into an immutable Model, then serve it
// through per-goroutine Runners with inputs and outputs addressed by name:
//
//	g := dnnfusion.NewGraph("mymodel")
//	x := g.AddInput("x", dnnfusion.ShapeOf(1, 64))
//	w := g.AddWeight("w", dnnfusion.Rand(64, 64))
//	h := g.Apply1(dnnfusion.MatMul(), x, w)
//	g.MarkOutputAs("y", g.Apply1(dnnfusion.Relu(), h))
//
//	model, err := dnnfusion.Compile(g)                 // full pipeline
//	runner := model.NewRunner()                        // one per goroutine
//	outs, err := runner.Run(ctx, map[string]*dnnfusion.Tensor{
//		"x": dnnfusion.Rand(1, 64),
//	})
//	_ = outs["y"]
//	report, err := model.Simulate(dnnfusion.SnapdragonCPU()) // device model
//
// Compile takes functional options — WithDevice and WithProfileDB for
// deployment, WithoutRewrite / WithoutFusion / WithoutBlockOpt /
// WithoutChainFusion for the paper's ablations. A Model is
// safe for concurrent use; a Runner owns per-session state and belongs to
// one goroutine at a time. Failures wrap the package's typed errors
// (ErrUnknownInput, ErrShapeMismatch, ErrCompile, ...) for errors.Is/As
// dispatch — see errors.go.
//
// See the examples/ directory for runnable programs and cmd/dnnf-bench for
// the full evaluation harness.
package dnnfusion

import (
	"fmt"

	"dnnfusion/internal/device"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tensor"
)

// Core graph and tensor types.
type (
	// Graph is a DNN computational graph.
	Graph = graph.Graph
	// Value is a tensor-valued edge of a Graph.
	Value = graph.Value
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// Shape is a tensor shape.
	Shape = tensor.Shape
	// Operator is a DNN operator instance.
	Operator = ops.Operator
	// MappingType is the paper's operator classification (Table 2).
	MappingType = ops.MappingType

	// Report is a simulated-inference report (latency, memory, cache).
	Report = engine.Report
	// Device is a simulated mobile CPU or GPU.
	Device = device.Device
	// ProfileDB is the profiling-result database of §4.3.
	ProfileDB = profile.DB
)

// NewGraph creates an empty computational graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// ShapeOf builds a Shape from dimensions.
func ShapeOf(dims ...int) Shape { return tensor.Of(dims...) }

// NewTensor allocates a zero tensor.
func NewTensor(dims ...int) *Tensor { return tensor.New(dims...) }

// Rand allocates a tensor with deterministic pseudo-random values. The seed
// is an FNV-1a hash of the dimensions, so differently shaped tensors get
// different (but reproducible) contents — including transposed shapes like
// Rand(32, 64) versus Rand(64, 32).
func Rand(dims ...int) *Tensor {
	var h uint64 = 14695981039346656037
	for _, d := range dims {
		h ^= uint64(d)
		h *= 1099511628211
	}
	return tensor.New(dims...).Rand(h)
}

// FromSlice wraps data in a tensor of the given shape.
func FromSlice(data []float32, dims ...int) *Tensor { return tensor.FromSlice(data, dims...) }

// NewProfileDB creates an empty profiling database; compile with
// WithProfileDB (and WithDevice) to enable profile-driven yellow decisions
// that persist across compilations.
func NewProfileDB() *ProfileDB { return profile.New() }

// LoadProfileDB reads a database saved with (*ProfileDB).Save.
func LoadProfileDB(path string) (*ProfileDB, error) { return profile.Load(path) }

// Devices.
func SnapdragonCPU() *Device { return device.Snapdragon865CPU() }
func SnapdragonGPU() *Device { return device.Adreno650() }

// Phones returns the paper's three evaluation handsets (Galaxy S20, Galaxy
// S10, Honor Magic 2), each with a CPU and GPU profile.
func Phones() []device.Phone { return device.Phones() }

// BuildModel constructs one of the paper's 15 evaluation models by name
// (see ModelNames). An unrecognized name wraps ErrUnknownModel.
func BuildModel(name string) (*Graph, error) {
	g, err := models.Build(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, err)
	}
	return g, nil
}

// ModelNames lists the evaluation models in Table 5 order.
func ModelNames() []string { return models.Names() }

// InterpretNamed executes a graph with the reference (unfused) operator
// implementations, with inputs and outputs addressed by name exactly like
// Runner.Run — the semantic ground truth fused execution is tested against.
func InterpretNamed(g *Graph, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	byName, err := inputsByName(g)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(g.Inputs))
	for i, in := range g.Inputs {
		names[i] = in.Name
	}
	feeds := make(map[*graph.Value]*tensor.Tensor, len(inputs))
	if err := resolveNamedFeeds(inputs, byName, names, feeds); err != nil {
		return nil, err
	}
	outs, err := graph.InterpretOutputs(g, feeds)
	if err != nil {
		return nil, err
	}
	results := make(map[string]*Tensor, len(outs))
	for i, name := range outputNamesOf(g) {
		results[name] = outs[i]
	}
	return results, nil
}

// Operator constructors (a curated subset; the full set lives in
// internal/ops and is re-exported here as needed by the public examples).
func Add() Operator                    { return ops.NewAdd() }
func Sub() Operator                    { return ops.NewSub() }
func Mul() Operator                    { return ops.NewMul() }
func Div() Operator                    { return ops.NewDiv() }
func Relu() Operator                   { return ops.NewRelu() }
func Sigmoid() Operator                { return ops.NewSigmoid() }
func Tanh() Operator                   { return ops.NewTanh() }
func Exp() Operator                    { return ops.NewExp() }
func Sqrt() Operator                   { return ops.NewSqrt() }
func Reciprocal() Operator             { return ops.NewReciprocal() }
func Square() Operator                 { return ops.NewSquare() }
func MatMul() Operator                 { return ops.NewMatMul() }
func Softmax(axis int) Operator        { return ops.NewSoftmax(axis) }
func Transpose(perm ...int) Operator   { return ops.NewTranspose(perm...) }
func Reshape(dims ...int) Operator     { return ops.NewReshape(dims...) }
func Concat(axis int) Operator         { return ops.NewConcat(axis) }
func Conv(attrs ConvAttrs) Operator    { return ops.NewConv(attrs) }
func MaxPool(attrs PoolAttrs) Operator { return ops.NewMaxPool(attrs) }
func ReduceSum(keepDims bool, axes ...int) Operator {
	return ops.NewReduce(ops.ReduceSum, keepDims, axes...)
}
func ReduceMean(keepDims bool, axes ...int) Operator {
	return ops.NewReduce(ops.ReduceMean, keepDims, axes...)
}
func BatchNormalization(eps float32) Operator { return ops.NewBatchNormalization(eps) }

// ConvAttrs and PoolAttrs configure convolutions and pooling.
type (
	ConvAttrs = ops.ConvAttrs
	PoolAttrs = ops.PoolAttrs
)
