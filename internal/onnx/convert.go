package onnx

import (
	"fmt"
	"math"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// ToGraph converts a decoded ONNX model into the compiler's graph IR. Every
// node is mapped onto the ops catalog; initializers become weights (float32
// data-carrying, or shape-only when the tensor ships dims without a
// payload, the in-tree zoo's convention for large parameters); structural
// operands (Reshape shapes, Slice ranges, axes lists) are resolved at
// convert time and never enter the graph. Errors wrap ErrImport, with
// *UnsupportedOpError for operators outside the subset.
func ToGraph(m *Model) (*graph.Graph, error) {
	if m == nil || m.Graph == nil {
		return nil, fmt.Errorf("%w: empty model", ErrImport)
	}
	name := m.Graph.Name
	if name == "" {
		name = "onnx-model"
	}
	c := &converter{
		g:      graph.New(name),
		gp:     m.Graph,
		opset:  m.OpsetVersion,
		values: make(map[string]*graph.Value),
		inits:  make(map[string]*TensorProto, len(m.Graph.Initializers)),
	}
	for _, t := range m.Graph.Initializers {
		if t.Name == "" {
			return nil, fmt.Errorf("%w: initializer with empty name", ErrImport)
		}
		c.inits[t.Name] = t
	}
	for _, vi := range m.Graph.Inputs {
		if _, isInit := c.inits[vi.Name]; isInit {
			continue // initializers redundantly listed as graph inputs (old opsets)
		}
		if vi.ElemType != 0 && vi.ElemType != dtFloat {
			return nil, fmt.Errorf("%w: input %q has element type %d, only float32 is supported", ErrImport, vi.Name, vi.ElemType)
		}
		shape := make(tensor.Shape, len(vi.Dims))
		for i, d := range vi.Dims {
			if d <= 0 {
				return nil, fmt.Errorf("%w: input %q has non-static dimension %d (symbolic/dynamic shapes are unsupported)", ErrImport, vi.Name, d)
			}
			shape[i] = int(d)
		}
		c.values[vi.Name] = c.g.AddInput(vi.Name, shape)
	}
	for i, n := range m.Graph.Nodes {
		if err := c.convertNode(i, n); err != nil {
			return nil, err
		}
	}
	if len(m.Graph.Outputs) == 0 {
		return nil, fmt.Errorf("%w: graph declares no outputs", ErrImport)
	}
	for _, vi := range m.Graph.Outputs {
		v, ok := c.values[vi.Name]
		if !ok {
			return nil, fmt.Errorf("%w: output %q is not produced by any node", ErrImport, vi.Name)
		}
		c.g.MarkOutputAs(vi.Name, v)
	}
	if err := c.g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: converted graph invalid: %v", ErrImport, err)
	}
	return c.g, nil
}

type converter struct {
	g      *graph.Graph
	gp     *GraphProto
	opset  int64
	values map[string]*graph.Value
	inits  map[string]*TensorProto
}

// nodeRef names a node for error messages: its own name or "#i".
func nodeRef(i int, n *NodeProto) string {
	if n.Name != "" {
		return fmt.Sprintf("%q", n.Name)
	}
	return fmt.Sprintf("#%d", i)
}

// errNode wraps a node-level import failure with ErrImport and context.
func errNode(i int, n *NodeProto, format string, args ...any) error {
	return fmt.Errorf("%w: node %s (%s): %s", ErrImport, nodeRef(i, n), n.OpType, fmt.Sprintf(format, args...))
}

// --- attribute access -------------------------------------------------------

func findAttr(n *NodeProto, name string) *Attribute {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func intAttr(n *NodeProto, name string, def int64) int64 {
	if a := findAttr(n, name); a != nil {
		return a.I
	}
	return def
}

func floatAttr(n *NodeProto, name string, def float32) float32 {
	if a := findAttr(n, name); a != nil {
		return a.F
	}
	return def
}

func strAttr(n *NodeProto, name, def string) string {
	if a := findAttr(n, name); a != nil && len(a.S) > 0 {
		return string(a.S)
	}
	return def
}

func intsAttr(n *NodeProto, name string) ([]int, bool) {
	a := findAttr(n, name)
	if a == nil {
		return nil, false
	}
	out := make([]int, len(a.Ints))
	for i, v := range a.Ints {
		out[i] = int(v)
	}
	return out, true
}

func floatsAttr(n *NodeProto, name string) ([]float32, bool) {
	a := findAttr(n, name)
	if a == nil {
		return nil, false
	}
	return append([]float32(nil), a.Floats...), true
}

// --- operand resolution -----------------------------------------------------

// valueOf resolves a node input name to a graph value, materializing
// float32 initializers as weights on first use. Structural (integer)
// operands must be consumed via constInts/constFloats instead.
func (c *converter) valueOf(name string) (*graph.Value, error) {
	if v, ok := c.values[name]; ok {
		return v, nil
	}
	t, ok := c.inits[name]
	if !ok {
		return nil, fmt.Errorf("%w: undefined tensor %q", ErrImport, name)
	}
	v, err := c.weightOf(t, false)
	if err != nil {
		return nil, err
	}
	c.values[name] = v
	return v, nil
}

// weightOf materializes one initializer as a graph weight. asIndices
// permits integer tensors, converting them to the float32 index tensors
// Gather consumes.
func (c *converter) weightOf(t *TensorProto, asIndices bool) (*graph.Value, error) {
	shape := make(tensor.Shape, len(t.Dims))
	for i, d := range t.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("%w: initializer %q has non-positive dim %d", ErrImport, t.Name, d)
		}
		shape[i] = int(d)
	}
	if len(shape) == 0 {
		shape = tensor.Of(1) // ONNX scalar → rank-1 single element
	}
	if asIndices && (t.DataType == dtInt64 || t.DataType == dtInt32) {
		idx, err := t.intData()
		if err != nil {
			return nil, err
		}
		if len(idx) != shape.NumElements() {
			return nil, fmt.Errorf("%w: initializer %q has %d elements for shape %v", ErrImport, t.Name, len(idx), shape)
		}
		data := make([]float32, len(idx))
		for i, v := range idx {
			data[i] = float32(v)
		}
		return c.g.AddWeight(t.Name, tensor.FromSlice(data, shape...)), nil
	}
	data, err := t.float32Data()
	if err != nil {
		return nil, err
	}
	if data == nil {
		// Dims without a payload: the zoo's shape-only parameters.
		return c.g.AddWeightShape(t.Name, shape), nil
	}
	if len(data) != shape.NumElements() {
		return nil, fmt.Errorf("%w: initializer %q has %d elements for shape %v", ErrImport, t.Name, len(data), shape)
	}
	return c.g.AddWeight(t.Name, tensor.FromSlice(data, shape...)), nil
}

// constInts reads an integer constant operand (shape/axes/ranges).
func (c *converter) constInts(name string) ([]int, error) {
	t, ok := c.inits[name]
	if !ok {
		return nil, fmt.Errorf("%w: operand %q must be a constant initializer (data-dependent shapes are unsupported)", ErrImport, name)
	}
	return t.intData()
}

// constFloats reads a float constant operand (Resize scales, Clip bounds).
func (c *converter) constFloats(name string) ([]float32, error) {
	t, ok := c.inits[name]
	if !ok {
		return nil, fmt.Errorf("%w: operand %q must be a constant initializer", ErrImport, name)
	}
	data, err := t.float32Data()
	if err != nil {
		return nil, err
	}
	if data == nil {
		return nil, fmt.Errorf("%w: operand %q is a shape-only tensor", ErrImport, name)
	}
	return data, nil
}

// scalarFloat reports whether name is a data-carrying single-element
// float32 initializer, and its value — the pattern the const-form
// elementwise operators (AddConst, MulConst, scalar Pow) fold.
func (c *converter) scalarFloat(name string) (float32, bool) {
	t, ok := c.inits[name]
	if !ok || t.DataType != dtFloat || t.NumElements() != 1 {
		return 0, false
	}
	data, err := t.float32Data()
	if err != nil || len(data) != 1 {
		return 0, false
	}
	return data[0], true
}

// --- node conversion --------------------------------------------------------

// unaryCtors maps ONNX op types that convert 1:1 onto unary catalog ops.
var unaryCtors = map[string]func() ops.Operator{
	"Relu":       ops.NewRelu,
	"Sigmoid":    ops.NewSigmoid,
	"Tanh":       ops.NewTanh,
	"Erf":        ops.NewErf,
	"Exp":        ops.NewExp,
	"Log":        ops.NewLog,
	"Sqrt":       ops.NewSqrt,
	"Softplus":   ops.NewSoftplus,
	"Identity":   ops.NewIdentity,
	"Neg":        ops.NewNeg,
	"Abs":        ops.NewAbs,
	"Ceil":       ops.NewCeil,
	"Floor":      ops.NewFloor,
	"Round":      ops.NewRound,
	"Reciprocal": ops.NewReciprocal,
}

// binaryCtors maps ONNX op types that convert 1:1 onto binary catalog ops.
var binaryCtors = map[string]func() ops.Operator{
	"Sub":     ops.NewSub,
	"Div":     ops.NewDiv,
	"Min":     ops.NewMin,
	"Max":     ops.NewMax,
	"PRelu":   ops.NewPRelu,
	"Greater": ops.NewGreater,
	"Equal":   ops.NewEqual,
}

func (c *converter) convertNode(i int, n *NodeProto) error {
	op, inputs, err := c.resolveOp(i, n)
	if err != nil {
		return err
	}
	if op == nil {
		return nil // node fully handled (Constant)
	}
	outs, err := c.g.Apply(op, inputs...)
	if err != nil {
		return errNode(i, n, "%v", err)
	}
	if len(outs) < len(n.Outputs) {
		return errNode(i, n, "%d outputs declared, operator produces %d", len(n.Outputs), len(outs))
	}
	for o, name := range n.Outputs {
		if name == "" {
			continue
		}
		if _, dup := c.values[name]; dup {
			return errNode(i, n, "output %q already defined", name)
		}
		c.values[name] = outs[o]
	}
	return nil
}

// inVals resolves node inputs [from, to) as graph values.
func (c *converter) inVals(i int, n *NodeProto, from, to int) ([]*graph.Value, error) {
	if to > len(n.Inputs) {
		return nil, errNode(i, n, "needs %d inputs, has %d", to, len(n.Inputs))
	}
	vals := make([]*graph.Value, 0, to-from)
	for _, name := range n.Inputs[from:to] {
		v, err := c.valueOf(name)
		if err != nil {
			return nil, errNode(i, n, "%v", err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// resolveOp maps one ONNX node onto a catalog operator and its graph
// inputs. A nil operator with nil error means the node required no graph
// node (Constant).
func (c *converter) resolveOp(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if ctor, ok := unaryCtors[n.OpType]; ok {
		ins, err := c.inVals(i, n, 0, 1)
		return ctor(), ins, err
	}
	if ctor, ok := binaryCtors[n.OpType]; ok {
		ins, err := c.inVals(i, n, 0, 2)
		return ctor(), ins, err
	}

	switch n.OpType {
	case "Constant":
		a := findAttr(n, "value")
		if a == nil || a.T == nil {
			return nil, nil, errNode(i, n, "only the tensor-valued form is supported")
		}
		if len(n.Outputs) != 1 || n.Outputs[0] == "" {
			return nil, nil, errNode(i, n, "needs one named output")
		}
		t := a.T
		t.Name = n.Outputs[0]
		c.inits[n.Outputs[0]] = t // consumed like an initializer
		return nil, nil, nil

	case "Add", "Mul", "Pow":
		if len(n.Inputs) == 2 {
			if v, isScalar := c.scalarFloat(n.Inputs[1]); isScalar {
				var op ops.Operator
				switch n.OpType {
				case "Add":
					op = ops.NewAddConst(v)
				case "Mul":
					op = ops.NewMulConst(v)
				case "Pow":
					op = ops.NewPowConst(v)
				}
				ins, err := c.inVals(i, n, 0, 1)
				return op, ins, err
			}
		}
		var op ops.Operator
		switch n.OpType {
		case "Add":
			op = ops.NewAdd()
		case "Mul":
			op = ops.NewMul()
		case "Pow":
			op = ops.NewPow()
		}
		ins, err := c.inVals(i, n, 0, 2)
		return op, ins, err

	case "Where":
		ins, err := c.inVals(i, n, 0, 3)
		return ops.NewWhere(), ins, err

	case "Cast":
		if to := intAttr(n, "to", 0); to != dtFloat {
			return nil, nil, errNode(i, n, "cast to dtype %d unsupported (only float32)", to)
		}
		ins, err := c.inVals(i, n, 0, 1)
		return ops.NewCast(), ins, err

	case "Clip":
		min, max := float32(-math.MaxFloat32), float32(math.MaxFloat32)
		if a := findAttr(n, "min"); a != nil {
			min = a.F
		} else if len(n.Inputs) >= 2 && n.Inputs[1] != "" {
			v, err := c.constFloats(n.Inputs[1])
			if err != nil || len(v) != 1 {
				return nil, nil, errNode(i, n, "min must be a scalar constant")
			}
			min = v[0]
		}
		if a := findAttr(n, "max"); a != nil {
			max = a.F
		} else if len(n.Inputs) >= 3 && n.Inputs[2] != "" {
			v, err := c.constFloats(n.Inputs[2])
			if err != nil || len(v) != 1 {
				return nil, nil, errNode(i, n, "max must be a scalar constant")
			}
			max = v[0]
		}
		ins, err := c.inVals(i, n, 0, 1)
		return ops.NewClip(min, max), ins, err

	case "LeakyRelu":
		ins, err := c.inVals(i, n, 0, 1)
		return ops.NewLeakyRelu(floatAttr(n, "alpha", 0.01)), ins, err

	case "MatMul":
		ins, err := c.inVals(i, n, 0, 2)
		return ops.NewMatMul(), ins, err

	case "Gemm":
		op := ops.NewGemm(
			floatAttr(n, "alpha", 1), floatAttr(n, "beta", 1),
			intAttr(n, "transA", 0) != 0, intAttr(n, "transB", 0) != 0)
		ins, err := c.inVals(i, n, 0, len(n.Inputs)) // 2 or 3 (optional C)
		return op, ins, err

	case "Conv", "ConvTranspose":
		return c.resolveConv(i, n)

	case "MaxPool", "AveragePool":
		return c.resolvePool(i, n)

	case "GlobalAveragePool":
		ins, err := c.inVals(i, n, 0, 1)
		return ops.NewGlobalAveragePool(), ins, err

	case "BatchNormalization":
		return c.resolveBatchNorm(i, n)

	case "InstanceNormalization":
		ins, err := c.inVals(i, n, 0, 3)
		return ops.NewInstanceNormalization(floatAttr(n, "epsilon", 1e-5)), ins, err

	case "Softmax", "LogSoftmax":
		def := int64(-1)
		if c.opset != 0 && c.opset < 13 {
			def = 1
		}
		axis := int(intAttr(n, "axis", def))
		ins, err := c.inVals(i, n, 0, 1)
		if n.OpType == "LogSoftmax" {
			return ops.NewLogSoftmax(axis), ins, err
		}
		return ops.NewSoftmax(axis), ins, err

	case "Reshape":
		return c.resolveReshape(i, n)

	case "Flatten":
		ins, err := c.inVals(i, n, 0, 1)
		return ops.NewFlatten(int(intAttr(n, "axis", 1))), ins, err

	case "Transpose":
		ins, err := c.inVals(i, n, 0, 1)
		if err != nil {
			return nil, nil, err
		}
		perm, ok := intsAttr(n, "perm")
		if !ok { // default: reverse dimensions
			rank := ins[0].Shape.Rank()
			perm = make([]int, rank)
			for j := range perm {
				perm[j] = rank - 1 - j
			}
		}
		return ops.NewTranspose(perm...), ins, nil

	case "Squeeze", "Unsqueeze":
		axes, haveAxes := intsAttr(n, "axes")
		if !haveAxes && len(n.Inputs) >= 2 {
			var err error
			if axes, err = c.constInts(n.Inputs[1]); err != nil {
				return nil, nil, errNode(i, n, "%v", err)
			}
			haveAxes = true
		}
		ins, err := c.inVals(i, n, 0, 1)
		if n.OpType == "Unsqueeze" {
			if !haveAxes {
				return nil, nil, errNode(i, n, "axes required")
			}
			return ops.NewUnsqueeze(axes...), ins, err
		}
		return ops.NewSqueeze(axes...), ins, err

	case "Slice":
		return c.resolveSlice(i, n)

	case "Concat":
		a := findAttr(n, "axis")
		if a == nil {
			return nil, nil, errNode(i, n, "axis required")
		}
		ins, err := c.inVals(i, n, 0, len(n.Inputs))
		return ops.NewConcat(int(a.I)), ins, err

	case "Split":
		return c.resolveSplit(i, n)

	case "ReduceSum", "ReduceMean", "ReduceMax", "ReduceMin", "ReduceProd":
		return c.resolveReduce(i, n)

	case "Gather":
		return c.resolveGather(i, n)

	case "Expand":
		target, err := c.constInts(n.Inputs[len(n.Inputs)-1])
		if err != nil {
			return nil, nil, errNode(i, n, "%v", err)
		}
		ins, err := c.inVals(i, n, 0, 1)
		return ops.NewExpand(target...), ins, err

	case "Upsample", "Resize":
		return c.resolveResize(i, n)

	case "DepthToSpace", "SpaceToDepth":
		if n.OpType == "DepthToSpace" {
			if mode := strAttr(n, "mode", "DCR"); mode != "DCR" {
				return nil, nil, errNode(i, n, "mode %q unsupported (only DCR)", mode)
			}
		}
		a := findAttr(n, "blocksize")
		if a == nil {
			return nil, nil, errNode(i, n, "blocksize required")
		}
		if a.I < 1 {
			return nil, nil, errNode(i, n, "blocksize %d < 1", a.I)
		}
		ins, err := c.inVals(i, n, 0, 1)
		if n.OpType == "DepthToSpace" {
			return ops.NewDepthToSpace(int(a.I)), ins, err
		}
		return ops.NewSpaceToDepth(int(a.I)), ins, err
	}

	return nil, nil, &UnsupportedOpError{Op: n.OpType, Node: nodeRef(i, n)}
}

// symmetricPads halves an ONNX pads list [b1..bk, e1..ek], requiring
// begin == end per spatial dimension (the catalog's Conv/Pool contract).
func symmetricPads(pads []int) ([]int, error) {
	if len(pads)%2 != 0 {
		return nil, fmt.Errorf("pads %v has odd length", pads)
	}
	k := len(pads) / 2
	out := make([]int, k)
	for i := 0; i < k; i++ {
		if pads[i] != pads[i+k] {
			return nil, fmt.Errorf("asymmetric pads %v unsupported (begin and end must match per dimension)", pads)
		}
		out[i] = pads[i]
	}
	return out, nil
}

func (c *converter) resolveConv(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if ap := strAttr(n, "auto_pad", "NOTSET"); ap != "NOTSET" {
		return nil, nil, errNode(i, n, "auto_pad %q unsupported (explicit pads only)", ap)
	}
	attrs := ops.ConvAttrs{Groups: int(intAttr(n, "group", 1))}
	attrs.Strides, _ = intsAttr(n, "strides")
	attrs.Dilations, _ = intsAttr(n, "dilations")
	if pads, ok := intsAttr(n, "pads"); ok {
		sym, err := symmetricPads(pads)
		if err != nil {
			return nil, nil, errNode(i, n, "%v", err)
		}
		attrs.Pads = sym
	}
	if n.OpType == "ConvTranspose" {
		if op, ok := intsAttr(n, "output_padding"); ok {
			for _, p := range op {
				if p != 0 {
					return nil, nil, errNode(i, n, "output_padding %v unsupported", op)
				}
			}
		}
		if _, ok := intsAttr(n, "output_shape"); ok {
			return nil, nil, errNode(i, n, "output_shape unsupported")
		}
	}
	ins, err := c.inVals(i, n, 0, len(n.Inputs)) // x, w[, bias]
	if err != nil {
		return nil, nil, err
	}
	if n.OpType == "ConvTranspose" {
		return ops.NewConvTranspose(attrs), ins, nil
	}
	return ops.NewConv(attrs), ins, nil
}

func (c *converter) resolvePool(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if ap := strAttr(n, "auto_pad", "NOTSET"); ap != "NOTSET" {
		return nil, nil, errNode(i, n, "auto_pad %q unsupported (explicit pads only)", ap)
	}
	if intAttr(n, "ceil_mode", 0) != 0 {
		return nil, nil, errNode(i, n, "ceil_mode unsupported")
	}
	if len(n.Outputs) > 1 {
		return nil, nil, errNode(i, n, "indices output unsupported")
	}
	attrs := ops.PoolAttrs{}
	var ok bool
	if attrs.Kernel, ok = intsAttr(n, "kernel_shape"); !ok {
		return nil, nil, errNode(i, n, "kernel_shape required")
	}
	attrs.Strides, _ = intsAttr(n, "strides")
	if pads, havePads := intsAttr(n, "pads"); havePads {
		sym, err := symmetricPads(pads)
		if err != nil {
			return nil, nil, errNode(i, n, "%v", err)
		}
		attrs.Pads = sym
	}
	ins, err := c.inVals(i, n, 0, 1)
	if n.OpType == "AveragePool" {
		if intAttr(n, "count_include_pad", 0) != 0 {
			return nil, nil, errNode(i, n, "count_include_pad unsupported")
		}
		return ops.NewAveragePool(attrs), ins, err
	}
	if dil, haveDil := intsAttr(n, "dilations"); haveDil {
		for _, d := range dil {
			if d != 1 {
				return nil, nil, errNode(i, n, "pooling dilations %v unsupported", dil)
			}
		}
	}
	return ops.NewMaxPool(attrs), ins, err
}

// resolveBatchNorm maps BatchNormalization. When all four parameters are
// data-carrying constants the node folds into per-channel scale+shift
// (Mul + Add) at import time — the inference-mode normalization
// a·x + b with a = scale/√(var+ε), b = bias − mean·a — which the fusion
// pass then merges with neighbors. Shape-only parameters (the zoo's
// convention) keep the 5-input BatchNormalization operator so structural
// round-trips are exact.
func (c *converter) resolveBatchNorm(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if len(n.Outputs) > 1 {
		return nil, nil, errNode(i, n, "training outputs unsupported")
	}
	if len(n.Inputs) != 5 {
		return nil, nil, errNode(i, n, "needs 5 inputs, has %d", len(n.Inputs))
	}
	eps := floatAttr(n, "epsilon", 1e-5)
	params := make([][]float32, 4)
	foldable := true
	for j, name := range n.Inputs[1:] {
		t, isInit := c.inits[name]
		if !isInit {
			foldable = false
			break
		}
		data, err := t.float32Data()
		if err != nil || data == nil {
			foldable = false
			break
		}
		params[j] = data
	}
	if !foldable {
		ins, err := c.inVals(i, n, 0, 5)
		return ops.NewBatchNormalization(eps), ins, err
	}

	xv, err := c.valueOf(n.Inputs[0])
	if err != nil {
		return nil, nil, errNode(i, n, "%v", err)
	}
	scale, bias, mean, variance := params[0], params[1], params[2], params[3]
	ch := len(scale)
	if len(bias) != ch || len(mean) != ch || len(variance) != ch {
		return nil, nil, errNode(i, n, "parameter lengths differ: %d/%d/%d/%d", len(scale), len(bias), len(mean), len(variance))
	}
	if xv.Shape.Rank() < 2 || xv.Shape[1] != ch {
		return nil, nil, errNode(i, n, "input %v does not have %d channels", xv.Shape, ch)
	}
	a := make([]float32, ch)
	b := make([]float32, ch)
	for j := 0; j < ch; j++ {
		aj := float64(scale[j]) / math.Sqrt(float64(variance[j])+float64(eps))
		a[j] = float32(aj)
		b[j] = float32(float64(bias[j]) - float64(mean[j])*aj)
	}
	// [C] followed by one 1 per spatial dim: trailing-aligned broadcasting
	// lands on the channel axis of [N, C, S...].
	pshape := tensor.Shape{ch}
	for r := 2; r < xv.Shape.Rank(); r++ {
		pshape = append(pshape, 1)
	}
	base := n.Name
	if base == "" {
		base = fmt.Sprintf("bn%d", i)
	}
	av := c.g.AddWeight(base+"_scale", tensor.FromSlice(a, pshape...))
	bv := c.g.AddWeight(base+"_shift", tensor.FromSlice(b, pshape...))
	scaled, err := c.g.Apply(ops.NewMul(), xv, av)
	if err != nil {
		return nil, nil, errNode(i, n, "%v", err)
	}
	return ops.NewAdd(), []*graph.Value{scaled[0], bv}, nil
}

func (c *converter) resolveReshape(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if intAttr(n, "allowzero", 0) != 0 {
		return nil, nil, errNode(i, n, "allowzero unsupported")
	}
	var target []int
	if shape, ok := intsAttr(n, "shape"); ok { // opset < 5
		target = shape
	} else {
		if len(n.Inputs) < 2 {
			return nil, nil, errNode(i, n, "shape operand required")
		}
		var err error
		if target, err = c.constInts(n.Inputs[1]); err != nil {
			return nil, nil, errNode(i, n, "%v", err)
		}
	}
	ins, err := c.inVals(i, n, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	// ONNX dim 0 copies the corresponding input dim; the input shape is
	// static here, so resolve it now.
	in := ins[0].Shape
	for j, d := range target {
		if d == 0 {
			if j >= in.Rank() {
				return nil, nil, errNode(i, n, "dim 0 at position %d exceeds input rank %d", j, in.Rank())
			}
			target[j] = in[j]
		}
	}
	return ops.NewReshape(target...), ins, nil
}

func (c *converter) resolveSlice(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	var axes, starts, ends []int
	var haveAxes bool
	if len(n.Inputs) >= 3 { // opset >= 10: operands
		var err error
		if starts, err = c.constInts(n.Inputs[1]); err != nil {
			return nil, nil, errNode(i, n, "starts: %v", err)
		}
		if ends, err = c.constInts(n.Inputs[2]); err != nil {
			return nil, nil, errNode(i, n, "ends: %v", err)
		}
		if len(n.Inputs) >= 4 && n.Inputs[3] != "" {
			if axes, err = c.constInts(n.Inputs[3]); err != nil {
				return nil, nil, errNode(i, n, "axes: %v", err)
			}
			haveAxes = true
		}
		if len(n.Inputs) >= 5 && n.Inputs[4] != "" {
			steps, err := c.constInts(n.Inputs[4])
			if err != nil {
				return nil, nil, errNode(i, n, "steps: %v", err)
			}
			for _, s := range steps {
				if s != 1 {
					return nil, nil, errNode(i, n, "steps %v unsupported (unit step only)", steps)
				}
			}
		}
	} else { // opset 1: attributes
		var ok bool
		if starts, ok = intsAttr(n, "starts"); !ok {
			return nil, nil, errNode(i, n, "starts required")
		}
		if ends, ok = intsAttr(n, "ends"); !ok {
			return nil, nil, errNode(i, n, "ends required")
		}
		axes, haveAxes = intsAttr(n, "axes")
	}
	if !haveAxes {
		axes = make([]int, len(starts))
		for j := range axes {
			axes[j] = j
		}
	}
	if len(starts) != len(axes) || len(ends) != len(axes) {
		return nil, nil, errNode(i, n, "axes/starts/ends lengths differ: %d/%d/%d", len(axes), len(starts), len(ends))
	}
	ins, err := c.inVals(i, n, 0, 1)
	return ops.NewSlice(axes, starts, ends), ins, err
}

func (c *converter) resolveSplit(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	axis := int(intAttr(n, "axis", 0))
	sizes, haveSizes := intsAttr(n, "split")
	if !haveSizes && len(n.Inputs) >= 2 && n.Inputs[1] != "" {
		var err error
		if sizes, err = c.constInts(n.Inputs[1]); err != nil {
			return nil, nil, errNode(i, n, "split sizes: %v", err)
		}
		haveSizes = true
	}
	ins, err := c.inVals(i, n, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	if !haveSizes { // equal split across the declared outputs
		parts := len(n.Outputs)
		na, ok := normAxis(axis, ins[0].Shape.Rank())
		if !ok || parts == 0 || ins[0].Shape[na]%parts != 0 {
			return nil, nil, errNode(i, n, "cannot split axis %d of %v into %d equal parts", axis, ins[0].Shape, parts)
		}
		sizes = make([]int, parts)
		for j := range sizes {
			sizes[j] = ins[0].Shape[na] / parts
		}
	}
	return ops.NewSplit(axis, sizes...), ins, nil
}

func normAxis(a, rank int) (int, bool) {
	if a < 0 {
		a += rank
	}
	if a < 0 || a >= rank {
		return 0, false
	}
	return a, true
}

func (c *converter) resolveReduce(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	kinds := map[string]ops.ReduceKind{
		"ReduceSum": ops.ReduceSum, "ReduceMean": ops.ReduceMean,
		"ReduceMax": ops.ReduceMax, "ReduceMin": ops.ReduceMin, "ReduceProd": ops.ReduceProd,
	}
	keep := intAttr(n, "keepdims", 1) != 0
	axes, haveAxes := intsAttr(n, "axes")
	if !haveAxes && len(n.Inputs) >= 2 && n.Inputs[1] != "" { // opset >= 18
		var err error
		if axes, err = c.constInts(n.Inputs[1]); err != nil {
			return nil, nil, errNode(i, n, "axes: %v", err)
		}
		haveAxes = true
	}
	ins, err := c.inVals(i, n, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	if !haveAxes && intAttr(n, "noop_with_empty_axes", 0) != 0 {
		return ops.NewIdentity(), ins, nil
	}
	return ops.NewReduce(kinds[n.OpType], keep, axes...), ins, nil
}

func (c *converter) resolveGather(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if len(n.Inputs) != 2 {
		return nil, nil, errNode(i, n, "needs 2 inputs, has %d", len(n.Inputs))
	}
	data, err := c.valueOf(n.Inputs[0])
	if err != nil {
		return nil, nil, errNode(i, n, "%v", err)
	}
	// Indices: integer initializers convert to the float32 index tensors
	// the catalog's Gather consumes; anything already in the graph (or a
	// float initializer) resolves normally.
	var idx *graph.Value
	if t, isInit := c.inits[n.Inputs[1]]; isInit && c.values[n.Inputs[1]] == nil && (t.DataType == dtInt64 || t.DataType == dtInt32) {
		if idx, err = c.weightOf(t, true); err != nil {
			return nil, nil, errNode(i, n, "%v", err)
		}
		c.values[n.Inputs[1]] = idx
	} else if idx, err = c.valueOf(n.Inputs[1]); err != nil {
		return nil, nil, errNode(i, n, "%v", err)
	}
	return ops.NewGather(int(intAttr(n, "axis", 0))), []*graph.Value{data, idx}, nil
}

// resolveResize maps Upsample (scales attr or operand) and the restricted
// Resize form (nearest mode, constant integral scales). NCHW [1,1,f,f]
// becomes the catalog's Upsample; any other integral scale vector becomes
// Resize.
func (c *converter) resolveResize(i int, n *NodeProto) (ops.Operator, []*graph.Value, error) {
	if mode := strAttr(n, "mode", "nearest"); mode != "nearest" {
		return nil, nil, errNode(i, n, "mode %q unsupported (only nearest)", mode)
	}
	scales, haveScales := floatsAttr(n, "scales")
	if !haveScales {
		// Upsample opset 9: input 1; Resize opset >= 10: roi at 1, scales at 2.
		for _, cand := range n.Inputs[1:] {
			if cand == "" {
				continue
			}
			t, isInit := c.inits[cand]
			if !isInit || t.DataType != dtFloat {
				continue
			}
			v, err := c.constFloats(cand)
			if err != nil {
				return nil, nil, errNode(i, n, "scales: %v", err)
			}
			if len(v) > 0 {
				scales, haveScales = v, true
				break
			}
		}
	}
	if !haveScales {
		return nil, nil, errNode(i, n, "constant scales required (sizes operand unsupported)")
	}
	ints := make([]int, len(scales))
	for j, s := range scales {
		f := int(s)
		if float32(f) != s || f < 1 {
			return nil, nil, errNode(i, n, "non-integral scale %v unsupported", s)
		}
		ints[j] = f
	}
	ins, err := c.inVals(i, n, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	if len(ints) == 4 && ints[0] == 1 && ints[1] == 1 && ints[2] == ints[3] {
		return ops.NewUpsample(ints[2]), ins, nil
	}
	return ops.NewResize(ints...), ins, nil
}
