package fusion

import (
	"slices"
	"sort"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// Chain is one fusable contraction chain: a MatMul/Gemm producer feeding a
// MatMul/Gemm consumer's A operand through zero or more single-consumer
// shape-preserving middle stages (pointwise activations/bias adds and/or a
// row softmax). Table 3 marks Combine(ManyToMany, ManyToMany) as FuseBreak
// for pairwise loop fusion; chain fusion is the deliberate exception,
// executed by the consumer contraction pulling its A operand — the
// producer's tree — in row-tile windows (ops contraction), so the
// intermediate never materializes.
type Chain struct {
	// Producer is the first contraction, Consumer the second; Middle lists
	// the stages between them ordered producer → consumer.
	Producer *graph.Node
	Consumer *graph.Node
	Middle   []*graph.Node
}

// Nodes returns the chain's members ordered producer → consumer.
func (c *Chain) Nodes() []*graph.Node {
	out := make([]*graph.Node, 0, len(c.Middle)+2)
	out = append(out, c.Producer)
	for i := len(c.Middle) - 1; i >= 0; i-- {
		out = append(out, c.Middle[i])
	}
	return append(out, c.Consumer)
}

// DetectChains finds every legal contraction chain in the graph, in
// topological order of the consumer. Legality mirrors the chain kernel's
// own engagement conditions, so a detected chain actually streams:
//
//   - consumer is MatMul/Gemm with untransposed operands whose A-side
//     batch dimensions equal the output's exactly (batch-polymorphic but
//     not A-broadcast);
//   - every intermediate value on the A path has a single consumer and is
//     not a graph output (streaming it would skip its materialization);
//   - middle stages preserve the streamed operand's shape: pointwise ops
//     (other operands may broadcast onto it) or an innermost-axis softmax;
//   - the chain is rooted at another MatMul/Gemm.
func DetectChains(e *ecg.ECG) []*Chain {
	var out []*Chain
	for _, n := range e.G.TopoSort() {
		if c := chainEndingAt(n); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// chainProducerNode reports whether n can root a chain: any MatMul or
// Gemm — its own transposes are internal to how it computes, not to how
// its output streams.
func chainProducerNode(n *graph.Node) bool {
	if _, _, ok := ops.MatMulTrans(n.Op); ok {
		return true
	}
	_, _, _, _, ok := ops.GemmInfo(n.Op)
	return ok
}

// chainConsumerNode reports whether n can terminate a chain: an
// untransposed MatMul or Gemm (the chain kernel streams its A operand in
// row-major row groups, which a transposed read order would defeat).
func chainConsumerNode(n *graph.Node) bool {
	if ta, tb, ok := ops.MatMulTrans(n.Op); ok {
		return !ta && !tb
	}
	if _, _, ta, tb, ok := ops.GemmInfo(n.Op); ok {
		return !ta && !tb
	}
	return false
}

func chainEndingAt(consumer *graph.Node) *Chain {
	if !chainConsumerNode(consumer) || len(consumer.Inputs) < 2 {
		return nil
	}
	out := consumer.Outputs[0].Shape
	a := consumer.Inputs[0].Shape
	// A's batch part must equal the output batch exactly: the streamed
	// producer is then batch-major over per-matrix row groups.
	if a.Rank() != out.Rank() || !a[:a.Rank()-2].Equal(out[:out.Rank()-2]) {
		return nil
	}
	c := &Chain{Consumer: consumer}
	v := consumer.Inputs[0]
	for {
		if v.Kind != graph.Intermediate || len(v.Consumers) != 1 || v.Producer == nil {
			return nil
		}
		p := v.Producer
		if len(p.Outputs) != 1 {
			return nil
		}
		if chainProducerNode(p) {
			c.Producer = p
			return c
		}
		next, ok := chainMiddle(p, v)
		if !ok {
			return nil
		}
		c.Middle = append(c.Middle, p)
		v = next
	}
}

// chainMiddle checks whether node p (producing value v) is a legal middle
// stage and returns the input value the chain continues through.
func chainMiddle(p *graph.Node, v *graph.Value) (*graph.Value, bool) {
	if axis, _, ok := ops.SoftmaxInfo(p.Op); ok {
		// Softmax must be over the innermost axis: only then is each
		// streamed row self-contained.
		ax, axOK := tensor.NormalizeAxis(axis, v.Shape.Rank())
		if !axOK || ax != v.Shape.Rank()-1 {
			return nil, false
		}
		return p.Inputs[0], true
	}
	if _, ok := p.Op.(ops.Pointwise); !ok {
		return nil, false
	}
	// The chain continues through the first input whose shape equals the
	// stage's output — the streamed operand; other inputs may broadcast.
	for _, in := range p.Inputs {
		if in.Shape.Equal(v.Shape) {
			return in, true
		}
	}
	return nil, false
}

// FuseChains is the chain-fusion post-pass over a generated plan: every
// detected chain whose members span multiple blocks is fused (fuseChain),
// so codegen compiles it as a single streaming kernel and the planner
// drops the intermediate from the arena. Returns the chains actually
// fused, consumer-topo-ordered.
func FuseChains(e *ecg.ECG, p *Plan, opts Options) []*Chain {
	var fused []*Chain
	for _, c := range DetectChains(e) {
		if p.fuseChain(c, opts) {
			fused = append(fused, c)
		}
	}
	return fused
}

// fuseChain merges the blocks holding chain c's members into one chain
// block, if the merge respects the block-size, input-count and convexity
// constraints; it reports whether it did. A block already carrying a chain
// is never merged again (one streaming chain per kernel).
func (p *Plan) fuseChain(c *Chain, opts Options) bool {
	var blocks []*Block
	for _, n := range c.Nodes() {
		b := p.blockOf[n]
		if b == nil || b.Chain != nil {
			return false
		}
		if !slices.Contains(blocks, b) {
			blocks = append(blocks, b)
		}
	}
	in := func(n *graph.Node) bool { return slices.Contains(blocks, p.blockOf[n]) }
	parts := make([][]*graph.Node, len(blocks))
	for i, b := range blocks {
		parts[i] = b.Nodes
	}
	if !withinLimits(opts.withDefaults(), in, parts...) || p.cyclic(in, parts...) {
		return false
	}
	target := p.blockOf[c.Consumer]
	merged := slices.Concat(parts...)
	sort.Slice(merged, func(i, j int) bool { return p.pos[merged[i]] < p.pos[merged[j]] })
	// Blocks are ordered by earliest member, so the merged block takes the
	// place of the first block it absorbs.
	kept := p.Blocks[:0]
	placed := false
	for _, b := range p.Blocks {
		switch {
		case !slices.Contains(blocks, b):
			kept = append(kept, b)
		case !placed:
			kept = append(kept, target)
			placed = true
		}
	}
	p.Blocks = kept
	for i, b := range p.Blocks {
		b.ID = i
	}
	target.Nodes = merged
	target.Mapping = ops.ManyToMany
	target.Chain = c
	for _, n := range merged {
		target.nodeSet[n] = true
		p.blockOf[n] = target
	}
	p.ChainFusions++
	return true
}
