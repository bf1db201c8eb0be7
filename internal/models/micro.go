package models

import (
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// Micro models: small graphs with real (deterministic) weight data, unlike
// the shape-only Table 5 zoo, so they execute numerically in milliseconds.
// They are the shared substrate of the allocation regression tests, the
// parity suites and dnnf-serve. They are intentionally not part
// of the Build/Names zoo (which mirrors the paper's 15 models).

// microWeight is a deterministic dense weight; seeds are offset per call
// site so differently placed weights differ.
func microWeight(g *graph.Graph, name string, seed uint64, dims ...int) *graph.Value {
	return g.AddWeight(name, tensor.New(dims...).Rand(seed))
}

// MicroCNN is a fused conv pipeline: conv → relu → maxpool → reshape →
// matmul → softmax over a 1×3×8×8 image, input "image", output "probs".
func MicroCNN() *graph.Graph {
	g := graph.New("micro-cnn")
	x := g.AddInput("image", tensor.Of(1, 3, 8, 8))
	w1 := microWeight(g, "w1", 11, 8, 3, 3, 3)
	v := g.Apply1(ops.NewConv(ops.ConvAttrs{Strides: []int{1, 1}, Pads: []int{1, 1}, Dilations: []int{1, 1}, Groups: 1}), x, w1)
	v = g.Apply1(ops.NewRelu(), v)
	v = g.Apply1(ops.NewMaxPool(ops.PoolAttrs{Kernel: []int{2, 2}, Strides: []int{2, 2}, Pads: []int{0, 0}}), v)
	// -1 keeps the reshape batch-polymorphic: at batch 1 it compiles to the
	// same (1, 128) shape as before, and a leading-axis batch variant
	// (CompileBatch) infers (N, 128) instead of failing on a hard-coded
	// row count.
	v = g.Apply1(ops.NewReshape(-1, 8*4*4), v)
	v = g.Apply1(ops.NewMatMul(), v, microWeight(g, "wfc", 12, 8*4*4, 10))
	g.MarkOutputAs("probs", g.Apply1(ops.NewSoftmax(-1), v))
	return g
}

// MicroMLP is a dense two-layer MLP with elementwise epilogues, input "x",
// output "y".
func MicroMLP() *graph.Graph {
	g := graph.New("micro-mlp")
	x := g.AddInput("x", tensor.Of(16, 64))
	v := g.Apply1(ops.NewMatMul(), x, microWeight(g, "w1", 21, 64, 96))
	v = g.Apply1(ops.NewAdd(), v, microWeight(g, "b1", 22, 96))
	v = g.Apply1(ops.NewRelu(), v)
	v = g.Apply1(ops.NewMatMul(), v, microWeight(g, "w2", 23, 96, 32))
	g.MarkOutputAs("y", g.Apply1(ops.NewSoftmax(-1), v))
	return g
}

// MicroAttention is a single attention head (matmul Q/K/V, transposed-key
// scores, softmax, context), input "tokens", output "context".
func MicroAttention() *graph.Graph {
	g := graph.New("micro-attention")
	x := g.AddInput("tokens", tensor.Of(8, 32))
	q := g.Apply1(ops.NewMatMul(), x, microWeight(g, "wq", 31, 32, 32))
	k := g.Apply1(ops.NewMatMul(), x, microWeight(g, "wk", 32, 32, 32))
	v := g.Apply1(ops.NewMatMul(), x, microWeight(g, "wv", 33, 32, 32))
	kt := g.Apply1(ops.NewTranspose(1, 0), k)
	scores := g.Apply1(ops.NewMatMul(), q, kt)
	probs := g.Apply1(ops.NewSoftmax(-1), scores)
	g.MarkOutputAs("context", g.Apply1(ops.NewMatMul(), probs, v))
	return g
}

// MicroElementwise is a deep fused elementwise chain over a 32×32×256
// activation — a scaled residual gate with suffix-broadcast bias/scale —
// the workload where blocked flat loops and intra-kernel parallelism pay
// off purely on dispatch and memory traffic (there is no heavy operator
// to hide behind). Input "x", output "y".
func MicroElementwise() *graph.Graph {
	g := graph.New("micro-elementwise")
	x := g.AddInput("x", tensor.Of(32, 32, 256))
	bias := microWeight(g, "bias", 41, 256)
	scale := microWeight(g, "scale", 42, 256)
	v := g.Apply1(ops.NewAdd(), x, bias)
	v = g.Apply1(ops.NewMul(), v, scale)
	v = g.Apply1(ops.NewSigmoid(), v)
	v = g.Apply1(ops.NewMulConst(2), v)
	v = g.Apply1(ops.NewMul(), v, x)
	v = g.Apply1(ops.NewRelu(), v)
	g.MarkOutputAs("y", v)
	return g
}

// MicroHead is a serving-overhead-sensitive classifier head: one row of
// features through a 64×16 projection, bias, and softmax — a ~1.5µs body,
// so per-request serving costs (dispatch, feed copies, output delivery)
// dominate. It is the regime where dynamic request batching classically
// pays: the micro-batch bench scenario uses it to track that amortization,
// and any future regression in per-request overhead shows up here first.
// Input "features" (1, 64), output "logits" (1, 16).
func MicroHead() *graph.Graph {
	g := graph.New("micro-head")
	x := g.AddInput("features", tensor.Of(1, 64))
	v := g.Apply1(ops.NewMatMul(), x, microWeight(g, "w", 51, 64, 16))
	v = g.Apply1(ops.NewAdd(), v, microWeight(g, "b", 52, 16))
	g.MarkOutputAs("logits", g.Apply1(ops.NewSoftmax(-1), v))
	return g
}

// MicroModels returns the executable micro-model constructors in stable
// report order.
func MicroModels() []struct {
	Name  string
	Build func() *graph.Graph
} {
	return []struct {
		Name  string
		Build func() *graph.Graph
	}{
		{"micro-cnn", MicroCNN},
		{"micro-mlp", MicroMLP},
		{"micro-attention", MicroAttention},
		{"micro-elementwise", MicroElementwise},
		{"micro-head", MicroHead},
	}
}
