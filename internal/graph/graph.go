// Package graph implements the computational-graph IR that DNNFusion
// consumes: a DAG of operator nodes connected by tensor-valued edges
// ("values"). The Extended Computational Graph of the paper
// (internal/ecg) annotates this IR with mapping types and properties.
package graph

import (
	"fmt"

	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// ValueKind distinguishes the roles a value can play.
type ValueKind int

const (
	// Input is a runtime-supplied model input.
	Input ValueKind = iota
	// Weight is a compile-time constant (model parameter).
	Weight
	// Intermediate is produced by a node and consumed internally.
	Intermediate
	// Output is a model output (also produced by a node).
	Output
)

var kindNames = [...]string{"input", "weight", "intermediate", "output"}

func (k ValueKind) String() string { return kindNames[k] }

// Value is a tensor-valued edge of the graph.
type Value struct {
	ID          int
	Name        string
	Shape       tensor.Shape
	Kind        ValueKind
	Producer    *Node // nil for Input and Weight values
	ProducerOut int   // which output slot of Producer
	Consumers   []*Node
	// Data holds the constant tensor for Weight values (and for
	// constants materialized by rewriting); nil otherwise.
	Data *tensor.Tensor
}

// IsConst reports whether the value is known at compile time.
func (v *Value) IsConst() bool { return v.Kind == Weight && v.Data != nil }

func (v *Value) String() string {
	return fmt.Sprintf("%s#%d%s", v.Name, v.ID, v.Shape)
}

// Node is an operator application.
type Node struct {
	ID      int
	Name    string
	Op      ops.Operator
	Inputs  []*Value
	Outputs []*Value
}

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d", n.Op.Type(), n.ID)
}

// Graph is a DAG of nodes. Nodes and Values are kept in creation order;
// TopoSort produces a dependency-respecting schedule after surgery.
type Graph struct {
	Name    string
	Nodes   []*Node
	Values  []*Value
	Inputs  []*Value
	Outputs []*Value

	nextValue int
	nextNode  int
}

// New creates an empty graph.
func New(name string) *Graph { return &Graph{Name: name} }

func (g *Graph) newValue(name string, shape tensor.Shape, kind ValueKind) *Value {
	v := &Value{ID: g.nextValue, Name: name, Shape: shape.Clone(), Kind: kind}
	g.nextValue++
	g.Values = append(g.Values, v)
	return v
}

// AddInput declares a runtime input of the given shape.
func (g *Graph) AddInput(name string, shape tensor.Shape) *Value {
	v := g.newValue(name, shape, Input)
	g.Inputs = append(g.Inputs, v)
	return v
}

// AddWeight declares a compile-time constant holding t.
func (g *Graph) AddWeight(name string, t *tensor.Tensor) *Value {
	v := g.newValue(name, t.Shape(), Weight)
	v.Data = t
	return v
}

// AddWeightShape declares a compile-time constant by shape only, without
// backing data. The model zoo uses it for large parameters: the simulator
// and all compiler passes work from shapes, so gigabytes of random weights
// are never allocated. Such weights cannot be constant-folded numerically
// or executed; small graphs needing numeric execution use AddWeight.
func (g *Graph) AddWeightShape(name string, shape tensor.Shape) *Value {
	return g.newValue(name, shape, Weight)
}

// Apply adds a node computing op over the given inputs, inferring output
// shapes, and returns the freshly created output values.
func (g *Graph) Apply(op ops.Operator, inputs ...*Value) ([]*Value, error) {
	shapes := make([]tensor.Shape, len(inputs))
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("graph: nil input %d to %s", i, op.Type())
		}
		shapes[i] = in.Shape
	}
	outShapes, err := op.InferShapes(shapes)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", op.Type(), err)
	}
	n := &Node{ID: g.nextNode, Op: op, Inputs: append([]*Value(nil), inputs...)}
	n.Name = fmt.Sprintf("%s_%d", op.Type(), n.ID)
	g.nextNode++
	for o, s := range outShapes {
		v := g.newValue(fmt.Sprintf("%s_out%d", n.Name, o), s, Intermediate)
		v.Producer = n
		v.ProducerOut = o
		n.Outputs = append(n.Outputs, v)
	}
	for _, in := range inputs {
		in.Consumers = append(in.Consumers, n)
	}
	g.Nodes = append(g.Nodes, n)
	return n.Outputs, nil
}

// Apply1 is Apply for single-output operators; it panics on error, which is
// the right trade-off for the model builders where shapes are static.
func (g *Graph) Apply1(op ops.Operator, inputs ...*Value) *Value {
	outs, err := g.Apply(op, inputs...)
	if err != nil {
		panic(err)
	}
	if len(outs) != 1 {
		panic(fmt.Sprintf("graph: Apply1 on %s with %d outputs", op.Type(), len(outs)))
	}
	return outs[0]
}

// MarkOutput declares v a model output.
func (g *Graph) MarkOutput(vs ...*Value) {
	for _, v := range vs {
		if v.Kind == Intermediate {
			v.Kind = Output
		}
		g.Outputs = append(g.Outputs, v)
	}
}

// MarkOutputAs renames v and declares it a model output, giving the value
// a stable public name for the serving API's named I/O (by default outputs
// carry generated internal names like "Softmax_4_out0"). Inputs and
// weights keep their declared names — renaming an input here would break
// its name-keyed feeds — so for those only the marking applies.
func (g *Graph) MarkOutputAs(name string, v *Value) {
	if v.Producer != nil {
		v.Name = name
	}
	g.MarkOutput(v)
}

// TopoSort returns the nodes in a dependency-respecting order. It panics if
// the graph contains a cycle (Validate reports it as an error instead).
func (g *Graph) TopoSort() []*Node {
	order, err := g.topoSort()
	if err != nil {
		panic(err)
	}
	return order
}

func (g *Graph) topoSort() ([]*Node, error) {
	pending := make(map[*Node]int, len(g.Nodes))
	var ready []*Node
	for _, n := range g.Nodes {
		deps := 0
		for _, in := range n.Inputs {
			if in.Producer != nil {
				deps++
			}
		}
		pending[n] = deps
		if deps == 0 {
			ready = append(ready, n)
		}
	}
	order := make([]*Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, out := range n.Outputs {
			for _, c := range out.Consumers {
				pending[c]--
				if pending[c] == 0 {
					ready = append(ready, c)
				}
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph %q: cycle detected (%d of %d nodes scheduled)",
			g.Name, len(order), len(g.Nodes))
	}
	return order, nil
}

// Validate checks structural invariants: consistent producer/consumer links,
// inferable shapes, and acyclicity.
func (g *Graph) Validate() error {
	if _, err := g.topoSort(); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		shapes := make([]tensor.Shape, len(n.Inputs))
		for i, in := range n.Inputs {
			shapes[i] = in.Shape
			found := false
			for _, c := range in.Consumers {
				if c == n {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph %q: %v missing consumer link to %v", g.Name, in, n)
			}
		}
		outShapes, err := n.Op.InferShapes(shapes)
		if err != nil {
			return fmt.Errorf("graph %q: %v: %w", g.Name, n, err)
		}
		if len(outShapes) != len(n.Outputs) {
			return fmt.Errorf("graph %q: %v output arity mismatch", g.Name, n)
		}
		for o, out := range n.Outputs {
			if !out.Shape.Equal(outShapes[o]) {
				return fmt.Errorf("graph %q: %v output %d shape %v, inferred %v",
					g.Name, n, o, out.Shape, outShapes[o])
			}
			if out.Producer != n || out.ProducerOut != o {
				return fmt.Errorf("graph %q: %v output %d producer link broken", g.Name, n, o)
			}
		}
	}
	for _, out := range g.Outputs {
		if out.Producer == nil && out.Kind != Input && out.Kind != Weight {
			return fmt.Errorf("graph %q: output %v has no producer", g.Name, out)
		}
	}
	return nil
}

// FLOPs totals the operator FLOPs over the whole graph.
func (g *Graph) FLOPs() int64 {
	var total int64
	for _, n := range g.Nodes {
		shapes := make([]tensor.Shape, len(n.Inputs))
		for i, in := range n.Inputs {
			shapes[i] = in.Shape
		}
		total += n.Op.FLOPs(shapes)
	}
	return total
}

// ParamBytes totals the weight bytes of the graph.
func (g *Graph) ParamBytes() int64 {
	var total int64
	for _, v := range g.Values {
		if v.Kind == Weight {
			total += v.Shape.Bytes()
		}
	}
	return total
}

// IntermediateBytes totals the bytes of every node-produced value — the
// paper's "IRS size" before optimization.
func (g *Graph) IntermediateBytes() int64 {
	var total int64
	for _, v := range g.Values {
		if v.Producer != nil {
			total += v.Shape.Bytes()
		}
	}
	return total
}
