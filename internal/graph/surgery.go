package graph

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// Graph surgery used by the rewriting pass (internal/rewrite): replacing
// subgraphs, removing dead nodes, and cloning graphs so the same model can
// be optimized by several independent compilers (Table 5/6 run seven
// configurations per model).

// ReplaceAllUses rewires every consumer of old to read from new instead, and
// transfers output status. Shapes must match.
func (g *Graph) ReplaceAllUses(old, new *Value) error {
	if !old.Shape.Equal(new.Shape) {
		return fmt.Errorf("graph: ReplaceAllUses shape mismatch %v vs %v", old, new)
	}
	if old == new {
		return nil
	}
	for _, c := range old.Consumers {
		for i, in := range c.Inputs {
			if in == old {
				c.Inputs[i] = new
			}
		}
		new.Consumers = append(new.Consumers, c)
	}
	old.Consumers = nil
	for i, out := range g.Outputs {
		if out == old {
			g.Outputs[i] = new
			if new.Kind == Intermediate {
				new.Kind = Output
			}
			if old.Kind == Output {
				old.Kind = Intermediate
			}
		}
	}
	return nil
}

// RemoveNode detaches n from the graph. Its outputs must be unused.
func (g *Graph) RemoveNode(n *Node) error {
	for _, out := range n.Outputs {
		if len(out.Consumers) > 0 {
			return fmt.Errorf("graph: RemoveNode %v: output %v still consumed", n, out)
		}
		for _, gout := range g.Outputs {
			if gout == out {
				return fmt.Errorf("graph: RemoveNode %v: output %v is a graph output", n, out)
			}
		}
	}
	for _, in := range n.Inputs {
		in.Consumers = removeNode(in.Consumers, n)
	}
	g.Nodes = removeNode(g.Nodes, n)
	for _, out := range n.Outputs {
		g.Values = removeValue(g.Values, out)
	}
	return nil
}

// EliminateDeadNodes repeatedly removes nodes whose outputs are unused and
// are not graph outputs, plus orphaned weight values. Returns the number of
// nodes removed.
func (g *Graph) EliminateDeadNodes() int {
	removed := 0
	for {
		progress := false
		for _, n := range append([]*Node(nil), g.Nodes...) {
			dead := true
			for _, out := range n.Outputs {
				if len(out.Consumers) > 0 || out.Kind == Output {
					dead = false
					break
				}
			}
			if dead {
				if err := g.RemoveNode(n); err == nil {
					removed++
					progress = true
				}
			}
		}
		if !progress {
			return removed
		}
	}
}

// AddConstant registers a compile-time constant tensor as a weight value;
// rewriting uses it when folding computations.
func (g *Graph) AddConstant(name string, t *tensor.Tensor) *Value {
	return g.AddWeight(name, t)
}

// Clone deep-copies the graph structure. Weight tensors are shared (they
// are immutable), everything else is copied, so independent optimizers can
// mutate clones freely.
func (g *Graph) Clone() *Graph {
	out := New(g.Name)
	out.nextValue = g.nextValue
	out.nextNode = g.nextNode
	valueMap := make(map[*Value]*Value, len(g.Values))
	for _, v := range g.Values {
		nv := &Value{
			ID: v.ID, Name: v.Name, Shape: v.Shape.Clone(),
			Kind: v.Kind, ProducerOut: v.ProducerOut, Data: v.Data,
		}
		valueMap[v] = nv
		out.Values = append(out.Values, nv)
	}
	nodeMap := make(map[*Node]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		nn := &Node{ID: n.ID, Name: n.Name, Op: n.Op}
		for _, in := range n.Inputs {
			nn.Inputs = append(nn.Inputs, valueMap[in])
		}
		for _, o := range n.Outputs {
			nn.Outputs = append(nn.Outputs, valueMap[o])
			valueMap[o].Producer = nn
		}
		nodeMap[n] = nn
		out.Nodes = append(out.Nodes, nn)
	}
	for _, v := range g.Values {
		for _, c := range v.Consumers {
			valueMap[v].Consumers = append(valueMap[v].Consumers, nodeMap[c])
		}
	}
	for _, in := range g.Inputs {
		out.Inputs = append(out.Inputs, valueMap[in])
	}
	for _, o := range g.Outputs {
		out.Outputs = append(out.Outputs, valueMap[o])
	}
	return out
}

func removeNode(s []*Node, n *Node) []*Node {
	out := s[:0]
	for _, x := range s {
		if x != n {
			out = append(out, x)
		}
	}
	return out
}

func removeValue(s []*Value, v *Value) []*Value {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
