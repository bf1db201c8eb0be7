package main

import (
	"fmt"
	"math"

	"dnnfusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// A workload is one graph with real weights, the traffic it is served
// with, and the reason it is in the benchmark. Everything the program under
// test receives — ONNX bytes, input tensors, request bodies — is generated
// here from the seed.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json and the README.
	why string
	// clients is the closed-loop HTTP client count (keep-alive connections).
	clients int
	build   func(r *rng) *graph.Graph
}

// inputsPerWorkload distinct input sets rotate through every timed loop, so
// no phase measures one cached input.
const inputsPerWorkload = 4

var workloads = []workload{
	{
		name:    "cnn",
		why:     "MobileNetV1-style 42-op CNN, 137 KB bodies, 1 client: the ops conv kernel does most of the work",
		clients: 1,
		build:   buildCNN,
	},
	{
		name:    "encoder",
		why:     "BERT-style 67-op encoder block, 12 KB bodies, 1 client: fusion plan decisions and the matmul/chain/movement kernels meet",
		clients: 1,
		build:   buildEncoder,
	},
	{
		name:    "pointwise",
		why:     "6-op elementwise chain over 64x1024, 730 KB bodies both ways, 1 client: the serve JSON codec does most of the work",
		clients: 1,
		build:   buildPointwise,
	},
	{
		name:    "head",
		why:     "3-op classifier head, 0.8 KB bodies, 2 batched clients: serve admission, queue and batch formation do most of the work",
		clients: 2,
		build:   buildHead,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is splitmix64: the benchmark's own generator, so weights and inputs
// depend on the seed alone and not on any library under test.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	// FNV-1a over the stream name separates weights from inputs and one
	// workload from another under the same seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uniform draws from [lo, hi) with 24 bits, exactly representable in float32.
func (r *rng) uniform(lo, hi float32) float32 {
	u := float32(r.next()>>40) / (1 << 24)
	return lo + (hi-lo)*u
}

func (r *rng) tensor(lo, hi float32, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	d := t.Data()
	for i := range d {
		d[i] = r.uniform(lo, hi)
	}
	return t
}

// builder names weights in creation order and scales them by fan-in so
// activations stay O(1) through the depth of the graph.
type builder struct {
	g  *graph.Graph
	r  *rng
	nw int
}

func (b *builder) weight(lo, hi float32, dims ...int) *graph.Value {
	b.nw++
	return b.g.AddWeight(fmt.Sprintf("w%d", b.nw), b.r.tensor(lo, hi, dims...))
}

// dense is a weight drawn from ±sqrt(3/fanIn): unit-variance outputs for
// unit-variance inputs.
func (b *builder) dense(fanIn int, dims ...int) *graph.Value {
	a := float32(math.Sqrt(3 / float64(fanIn)))
	return b.weight(-a, a, dims...)
}

func (b *builder) apply(op ops.Operator, ins ...*graph.Value) *graph.Value {
	return b.g.Apply1(op, ins...)
}

func (b *builder) linear(x *graph.Value, out int) *graph.Value {
	in := x.Shape[x.Shape.Rank()-1]
	v := b.apply(ops.NewMatMul(), x, b.dense(in, in, out))
	return b.apply(ops.NewAdd(), v, b.weight(-0.1, 0.1, out))
}

// bnRelu6 is inference BatchNormalization (positive variance) then ReLU6.
func (b *builder) bnRelu6(x *graph.Value) *graph.Value {
	c := x.Shape[1]
	v := b.apply(ops.NewBatchNormalization(1e-5), x,
		b.weight(0.8, 1.2, c), b.weight(-0.1, 0.1, c), b.weight(-0.1, 0.1, c), b.weight(0.5, 1.5, c))
	return b.apply(ops.NewClip(0, 6), v)
}

// layerNorm is the decomposed 9-op LayerNormalization ONNX exporters emit.
func (b *builder) layerNorm(x *graph.Value) *graph.Value {
	axis := x.Shape.Rank() - 1
	h := x.Shape[axis]
	mean := b.apply(ops.NewReduce(ops.ReduceMean, true, axis), x)
	centered := b.apply(ops.NewSub(), x, mean)
	sq := b.apply(ops.NewPowConst(2), centered)
	variance := b.apply(ops.NewReduce(ops.ReduceMean, true, axis), sq)
	std := b.apply(ops.NewSqrt(), b.apply(ops.NewAddConst(1e-5), variance))
	norm := b.apply(ops.NewDiv(), centered, std)
	scaled := b.apply(ops.NewMul(), norm, b.weight(0.8, 1.2, h))
	return b.apply(ops.NewAdd(), scaled, b.weight(-0.1, 0.1, h))
}

// geluErf is the decomposed 5-op 0.5x(1+erf(x/√2)) of BERT exports.
func (b *builder) geluErf(x *graph.Value) *graph.Value {
	v := b.apply(ops.NewMulConst(0.7071068), x)
	v = b.apply(ops.NewErf(), v)
	v = b.apply(ops.NewAddConst(1), v)
	v = b.apply(ops.NewMul(), x, v)
	return b.apply(ops.NewMulConst(0.5), v)
}

// buildCNN is a MobileNetV1-style classifier over a 3×64×64 image: a
// stride-2 3×3 stem, six depthwise-separable stages (stride 2 on the odd
// ones), global average pooling, a fully connected layer and softmax. 42
// operators; input "image", output "probs".
func buildCNN(r *rng) *graph.Graph {
	b := &builder{g: graph.New("cnn"), r: r}
	x := b.g.AddInput("image", tensor.Of(1, 3, 64, 64))
	conv := func(x *graph.Value, outCh, k, stride, groups int) *graph.Value {
		inCh := x.Shape[1] / groups
		w := b.dense(inCh*k*k, outCh, inCh, k, k)
		return b.apply(ops.NewConv(ops.ConvAttrs{Strides: []int{stride}, Pads: []int{k / 2}, Groups: groups}), x, w)
	}
	v := conv(x, 16, 3, 2, 1)
	for stage, outCh := range []int{16, 32, 32, 64, 64, 128} {
		stride := 1 + stage%2
		ch := v.Shape[1]
		v = b.bnRelu6(conv(v, ch, 3, stride, ch))
		v = b.bnRelu6(conv(v, outCh, 1, 1, 1))
	}
	v = b.apply(ops.NewGlobalAveragePool(), v)
	v = b.apply(ops.NewReshape(-1, 128), v)
	v = b.linear(v, 10)
	b.g.MarkOutputAs("probs", b.apply(ops.NewSoftmax(-1), v))
	return b.g
}

// buildEncoder is one BERT-style encoder block — seq 16, hidden 64, 4
// heads, FFN 256 — as an exporter leaves it: decomposed LayerNorm and
// erf-GELU, a reshape+transpose ribbon around the per-head contractions,
// and Cast/Identity/cancelling-Transpose cruft after the block. 67
// operators; input "tokens", output "pooled".
func buildEncoder(r *rng) *graph.Graph {
	const seq, hidden, heads, ffn = 16, 64, 4, 256
	const dh = hidden / heads
	b := &builder{g: graph.New("encoder"), r: r}
	x := b.layerNorm(b.g.AddInput("tokens", tensor.Of(seq, hidden)))

	split := func(t *graph.Value) *graph.Value {
		t = b.apply(ops.NewReshape(seq, heads, dh), t)
		return b.apply(ops.NewTranspose(1, 0, 2), t)
	}
	q, k, val := split(b.linear(x, hidden)), split(b.linear(x, hidden)), split(b.linear(x, hidden))
	scores := b.apply(ops.NewMatMul(), q, b.apply(ops.NewTranspose(0, 2, 1), k))
	scores = b.apply(ops.NewMulConst(1/float32(math.Sqrt(dh))), scores)
	scores = b.apply(ops.NewAdd(), scores, b.weight(-0.5, 0, 1, seq, seq))
	ctx := b.apply(ops.NewMatMul(), b.apply(ops.NewSoftmax(-1), scores), val)
	ctx = b.apply(ops.NewTranspose(1, 0, 2), ctx)
	ctx = b.apply(ops.NewReshape(seq, hidden), ctx)
	x = b.layerNorm(b.apply(ops.NewAdd(), b.linear(ctx, hidden), x))

	h := b.linear(b.geluErf(b.linear(x, ffn)), hidden)
	x = b.layerNorm(b.apply(ops.NewAdd(), h, x))

	x = b.apply(ops.NewIdentity(), b.apply(ops.NewCast(), x))
	x = b.apply(ops.NewTranspose(1, 0), b.apply(ops.NewTranspose(1, 0), x))

	b.g.MarkOutputAs("pooled", b.apply(ops.NewTanh(), b.linear(x, hidden)))
	return b.g
}

// buildPointwise is the micro-elementwise gate (Add, Mul, Sigmoid,
// MulConst, Mul, Relu with suffix-broadcast weights) over a 64×1024
// activation: one fused kernel, large bodies. Input "x", output "y".
func buildPointwise(r *rng) *graph.Graph {
	b := &builder{g: graph.New("pointwise"), r: r}
	x := b.g.AddInput("x", tensor.Of(64, 1024))
	v := b.apply(ops.NewAdd(), x, b.weight(-1, 1, 1024))
	v = b.apply(ops.NewMul(), v, b.weight(-1, 1, 1024))
	v = b.apply(ops.NewSigmoid(), v)
	v = b.apply(ops.NewMulConst(2), v)
	v = b.apply(ops.NewMul(), v, x)
	b.g.MarkOutputAs("y", b.apply(ops.NewRelu(), v))
	return b.g
}

// buildHead is the micro-head classifier (1×64 · 64×16 + bias + softmax)
// with seeded weights: a microsecond body that batches along axis 0.
// Input "features", output "logits".
func buildHead(r *rng) *graph.Graph {
	b := &builder{g: graph.New("head"), r: r}
	v := b.linear(b.g.AddInput("features", tensor.Of(1, 64)), 16)
	b.g.MarkOutputAs("logits", b.apply(ops.NewSoftmax(-1), v))
	return b.g
}

// generated is everything a workload hands the program under test, plus the
// reference outputs the program is checked against.
type generated struct {
	graph  *graph.Graph
	onnx   []byte
	inputs []map[string]*dnnfusion.Tensor
	// refs[i] is the scalar interpreter's output for inputs[i] on the graph
	// as built, before export: never the compiler under test.
	refs []map[string]*dnnfusion.Tensor
}

// generate builds the workload's graph, weights, ONNX bytes, inputs and
// reference outputs from the seed alone.
func (w workload) generate(seed uint64) (*generated, error) {
	g := w.build(newRNG(seed, w.name+"/weights"))
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%s: graph: %w", w.name, err)
	}
	data, err := dnnfusion.Export(g)
	if err != nil {
		return nil, fmt.Errorf("%s: export: %w", w.name, err)
	}
	gen := &generated{graph: g, onnx: data}
	r := newRNG(seed, w.name+"/inputs")
	for i := 0; i < inputsPerWorkload; i++ {
		in := make(map[string]*dnnfusion.Tensor, len(g.Inputs))
		for _, v := range g.Inputs {
			in[v.Name] = r.tensor(-1, 1, v.Shape...)
		}
		ref, err := dnnfusion.InterpretNamed(g, in)
		if err != nil {
			return nil, fmt.Errorf("%s: reference interpretation: %w", w.name, err)
		}
		gen.inputs = append(gen.inputs, in)
		gen.refs = append(gen.refs, ref)
	}
	return gen, nil
}
