package dnnfusion_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// foldTolerance is README's numeric-contract bound for weight folding:
// tensor.AllClose against the graph as built.
const foldTolerance = 1e-3

// mobileNetBlock is a MobileNetV1-style stem and two depthwise-separable
// stages over a 3×16×16 image, each Conv after the stem followed by a
// data-carrying BatchNormalization and ReLU6. Input "image", output "y".
func mobileNetBlock() *graph.Graph {
	g := graph.New("mobilenet-block")
	nw := 0
	weight := func(lo, hi float32, dims ...int) *graph.Value {
		nw++
		t := tensor.New(dims...).Rand(uint64(3000 + nw))
		for i, v := range t.Data() {
			t.Data()[i] = lo + (hi-lo)*(v+1)/2
		}
		return g.AddWeight(fmt.Sprintf("w%d", nw), t)
	}
	conv := func(x *graph.Value, outCh, k, stride, groups int) *graph.Value {
		inCh := x.Shape[1] / groups
		a := float32(math.Sqrt(3 / float64(inCh*k*k)))
		w := weight(-a, a, outCh, inCh, k, k)
		return g.Apply1(ops.NewConv(ops.ConvAttrs{Strides: []int{stride}, Pads: []int{k / 2}, Groups: groups}), x, w)
	}
	bnRelu6 := func(x *graph.Value) *graph.Value {
		c := x.Shape[1]
		v := g.Apply1(ops.NewBatchNormalization(1e-5), x,
			weight(0.8, 1.2, c), weight(-0.1, 0.1, c), weight(-0.1, 0.1, c), weight(0.5, 1.5, c))
		return g.Apply1(ops.NewClip(0, 6), v)
	}
	v := conv(g.AddInput("image", tensor.Of(1, 3, 16, 16)), 8, 3, 2, 1)
	for stage, outCh := range []int{16, 16} {
		ch := v.Shape[1]
		v = bnRelu6(conv(v, ch, 3, 1+stage, ch))
		v = bnRelu6(conv(v, outCh, 1, 1, 1))
	}
	g.MarkOutputAs("y", v)
	return g
}

// TestImportedBatchNormFoldsIntoConv: a data-carrying BatchNormalization
// arrives from ONNX as Mul+Add over [C,1,1] constants; the compiled model
// folds every one into its Conv, so no kernel runs a Mul or an Add, and
// the outputs stay within the folding bound of the graph as built, at one
// and two lanes.
func TestImportedBatchNormFoldsIntoConv(t *testing.T) {
	built := mobileNetBlock()
	data, err := dnnfusion.Export(built)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := dnnfusion.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	affine := 0
	for _, n := range imported.Nodes {
		if typ := n.Op.Type(); typ == "Mul" || typ == "Add" {
			affine++
		}
	}
	if affine != 8 {
		t.Fatalf("import left %d Mul/Add nodes, want 8 (four BatchNorms)", affine)
	}
	feeds := map[string]*dnnfusion.Tensor{"image": tensor.New(1, 3, 16, 16).Rand(41)}
	want, err := dnnfusion.InterpretNamed(built, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2} {
		m, err := dnnfusion.Compile(imported, dnnfusion.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if n := m.Stats.RewriteStats.ByRule["fold-conv-affine"]; n != 4 {
			t.Errorf("threads %d: fold-conv-affine applied %d times, want 4", threads, n)
		}
		for _, k := range m.Kernels {
			for _, n := range k.Block.Nodes {
				if typ := n.Op.Type(); typ == "Mul" || typ == "Add" {
					t.Errorf("threads %d: kernel %s still runs %s", threads, k.Name, typ)
				}
			}
		}
		got, err := m.NewRunner().Run(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(got["y"], want["y"], foldTolerance) {
			t.Errorf("threads %d: folded output off the graph as built by %g", threads, tensor.MaxAbsDiff(got["y"], want["y"]))
		}
	}
}
