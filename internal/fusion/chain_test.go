package fusion

import (
	"testing"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// attentionChainGraph is the canonical online-chain shape: scores softmax
// context, with Q/K/V projections above it.
func attentionChainGraph() *graph.Graph {
	g := graph.New("attn-chain")
	x := g.AddInput("x", tensor.Of(8, 16))
	q := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("wq", tensor.Of(16, 16)))
	k := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("wk", tensor.Of(16, 16)))
	v := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("wv", tensor.Of(16, 16)))
	scores := g.Apply1(ops.NewMatMulT(false, true), q, k)
	probs := g.Apply1(ops.NewSoftmax(-1), scores)
	g.MarkOutput(g.Apply1(ops.NewMatMul(), probs, v))
	return g
}

// mlpChainGraph is the exact-chain shape: matmul, bias, relu, matmul.
func mlpChainGraph() *graph.Graph {
	g := graph.New("mlp-chain")
	x := g.AddInput("x", tensor.Of(8, 16))
	h := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("w1", tensor.Of(16, 32)))
	h = g.Apply1(ops.NewAdd(), h, g.AddWeightShape("b1", tensor.Of(32)))
	h = g.Apply1(ops.NewRelu(), h)
	g.MarkOutput(g.Apply1(ops.NewMatMul(), h, g.AddWeightShape("w2", tensor.Of(32, 8))))
	return g
}

func TestDetectChainsAttention(t *testing.T) {
	g := attentionChainGraph()
	chains := DetectChains(ecg.Build(g))
	if len(chains) != 1 {
		t.Fatalf("detected %d chains, want 1", len(chains))
	}
	c := chains[0]
	if !c.Online {
		t.Error("softmax chain not classified online")
	}
	// The producer is the transposed scores matmul: producer-side
	// transposes are internal to how it computes and must not block
	// detection (this is exactly the attention shape after rewriting).
	if ta, tb, ok := ops.MatMulTrans(c.Producer.Op); !ok || ta || !tb {
		t.Errorf("producer %v is not the transposed-key scores matmul", c.Producer)
	}
	nodes := c.Nodes()
	if len(nodes) != 3 || nodes[0] != c.Producer || nodes[2] != c.Consumer {
		t.Errorf("chain nodes %v not ordered producer→middle→consumer", nodes)
	}
}

func TestDetectChainsMLPExact(t *testing.T) {
	g := mlpChainGraph()
	chains := DetectChains(ecg.Build(g))
	if len(chains) != 1 {
		t.Fatalf("detected %d chains, want 1", len(chains))
	}
	c := chains[0]
	if c.Online {
		t.Error("softmax-free chain classified online")
	}
	if len(c.Middle) != 2 {
		t.Errorf("middle stages %v, want bias add + relu", c.Middle)
	}
}

func TestDetectChainsLogSoftmaxStreamsExactly(t *testing.T) {
	g := graph.New("log-sm")
	x := g.AddInput("x", tensor.Of(8, 16))
	s := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("w1", tensor.Of(16, 16)))
	p := g.Apply1(ops.NewLogSoftmax(-1), s)
	g.MarkOutput(g.Apply1(ops.NewMatMul(), p, g.AddWeightShape("w2", tensor.Of(16, 16))))
	chains := DetectChains(ecg.Build(g))
	if len(chains) != 1 {
		t.Fatalf("detected %d chains, want 1", len(chains))
	}
	if chains[0].Online {
		t.Error("log-softmax chain classified online; it must take the exact streaming path")
	}
}

// TestDetectChainsRejections pins the legality boundary: each variation
// breaks exactly one engagement condition and must yield no chain.
func TestDetectChainsRejections(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"transposed consumer", func() *graph.Graph {
			g := graph.New("t")
			x := g.AddInput("x", tensor.Of(8, 16))
			s := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("w1", tensor.Of(16, 16)))
			p := g.Apply1(ops.NewSoftmax(-1), s)
			g.MarkOutput(g.Apply1(ops.NewMatMulT(false, true), p, g.AddWeightShape("w2", tensor.Of(16, 16))))
			return g
		}},
		{"fan-out intermediate", func() *graph.Graph {
			g := graph.New("f")
			x := g.AddInput("x", tensor.Of(8, 16))
			s := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("w1", tensor.Of(16, 16)))
			p := g.Apply1(ops.NewSoftmax(-1), s)
			g.MarkOutput(g.Apply1(ops.NewMatMul(), p, g.AddWeightShape("w2", tensor.Of(16, 16))))
			g.MarkOutput(g.Apply1(ops.NewRelu(), p)) // second consumer of probs
			return g
		}},
		{"axis-0 softmax", func() *graph.Graph {
			g := graph.New("a0")
			x := g.AddInput("x", tensor.Of(8, 16))
			s := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("w1", tensor.Of(16, 16)))
			p := g.Apply1(ops.NewSoftmax(0), s)
			g.MarkOutput(g.Apply1(ops.NewMatMul(), p, g.AddWeightShape("w2", tensor.Of(16, 16))))
			return g
		}},
		{"intermediate is graph output", func() *graph.Graph {
			g := graph.New("o")
			x := g.AddInput("x", tensor.Of(8, 16))
			s := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape("w1", tensor.Of(16, 16)))
			p := g.Apply1(ops.NewSoftmax(-1), s)
			g.MarkOutput(p) // streaming it would skip its materialization
			g.MarkOutput(g.Apply1(ops.NewMatMul(), p, g.AddWeightShape("w2", tensor.Of(16, 16))))
			return g
		}},
		{"no contraction root", func() *graph.Graph {
			g := graph.New("r")
			x := g.AddInput("x", tensor.Of(8, 16))
			p := g.Apply1(ops.NewSoftmax(-1), g.Apply1(ops.NewRelu(), x))
			g.MarkOutput(g.Apply1(ops.NewMatMul(), p, g.AddWeightShape("w2", tensor.Of(16, 16))))
			return g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if chains := DetectChains(ecg.Build(tc.build())); len(chains) != 0 {
				t.Errorf("detected %d chains, want none", len(chains))
			}
		})
	}
}

// TestFuseChainsMergesBlocks checks the post-pass invariants: the chain's
// members end up in one block tagged with the chain, the plan still
// partitions the graph, and the counter reflects the merge.
func TestFuseChainsMergesBlocks(t *testing.T) {
	for _, build := range []func() *graph.Graph{attentionChainGraph, mlpChainGraph} {
		g := build()
		e := ecg.Build(g)
		p := GeneratePlan(e, Options{})
		chains := FuseChains(e, p, Options{})
		if len(chains) != 1 {
			t.Fatalf("%s: fused %d chains, want 1", g.Name, len(chains))
		}
		if p.ChainFusions != 1 {
			t.Errorf("%s: ChainFusions = %d, want 1", g.Name, p.ChainFusions)
		}
		c := chains[0]
		blk := p.BlockOf(c.Consumer)
		if blk == nil || blk.Chain != c {
			t.Fatalf("%s: consumer block not tagged with the chain", g.Name)
		}
		for _, n := range c.Nodes() {
			if p.BlockOf(n) != blk {
				t.Errorf("%s: chain member %v outside the chain block", g.Name, n)
			}
		}
		seen := map[*graph.Node]bool{}
		for _, b := range p.Blocks {
			for _, n := range b.Nodes {
				if seen[n] {
					t.Fatalf("%s: node %v in two blocks after chain fusion", g.Name, n)
				}
				seen[n] = true
			}
		}
		if len(seen) != len(g.Nodes) {
			t.Errorf("%s: plan covers %d/%d nodes after chain fusion", g.Name, len(seen), len(g.Nodes))
		}
	}
}
