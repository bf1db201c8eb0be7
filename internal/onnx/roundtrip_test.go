package onnx_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dnnfusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/onnx"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// randFeeds builds deterministic pseudo-random feeds for a graph's inputs.
func randFeeds(g *graph.Graph) map[string]*dnnfusion.Tensor {
	feeds := make(map[string]*dnnfusion.Tensor, len(g.Inputs))
	for _, in := range g.Inputs {
		feeds[in.Name] = dnnfusion.Rand(in.Shape...)
	}
	return feeds
}

func assertBitExact(t *testing.T, ctx string, want, got map[string]*dnnfusion.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", ctx, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing output %q", ctx, name)
		}
		wd, gd := w.Data(), g.Data()
		if len(wd) != len(gd) {
			t.Fatalf("%s: output %q has %d elements, want %d", ctx, name, len(gd), len(wd))
		}
		for i := range wd {
			if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
				t.Fatalf("%s: output %q diverges at [%d]: %v != %v (bits %08x != %08x)",
					ctx, name, i, gd[i], wd[i], math.Float32bits(gd[i]), math.Float32bits(wd[i]))
			}
		}
	}
}

// gemmMLP is a two-layer Gemm model whose layers carry the full ONNX
// epilogue (alpha ≠ 1, beta ∉ {0, 1}, an [N] and an [M,1] addend, a
// transposed weight). Nothing in it reassociates under rewriting and its
// Gemm → Relu → Gemm chain streams exactly, so the compiled model must
// match the interpreter bit-for-bit.
func gemmMLP() *graph.Graph {
	g := graph.New("gemm-mlp")
	x := g.AddInput("x", tensor.Of(8, 32))
	w1 := g.AddWeight("w1", tensor.New(48, 32).Rand(11))
	c1 := g.AddWeight("c1", tensor.New(48).Rand(12))
	h := g.Apply1(ops.NewRelu(), g.Apply1(ops.NewGemm(0.75, -1.25, false, true), x, w1, c1))
	w2 := g.AddWeight("w2", tensor.New(48, 16).Rand(13))
	c2 := g.AddWeight("c2", tensor.New(8, 1).Rand(14))
	g.MarkOutputAs("y", g.Apply1(ops.NewGemm(1.5, 0.5, false, false), h, w2, c2))
	return g
}

// TestRoundTripMicroBitExact exports each executable micro model to ONNX
// bytes, imports the bytes back, and requires bit-identical outputs from
// both the reference interpreter and the compiled engine at 1 and 8
// threads. The Gemm model is also held to the interpreter itself.
func TestRoundTripMicroBitExact(t *testing.T) {
	type row struct {
		Name  string
		Build func() *graph.Graph
	}
	rows := []row{{"gemm-mlp", gemmMLP}}
	for _, mm := range models.MicroModels() {
		rows = append(rows, row(mm))
	}
	for _, mm := range rows {
		mm := mm
		t.Run(mm.Name, func(t *testing.T) {
			orig := mm.Build()
			data, err := onnx.Export(orig)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			imported, err := onnx.Import(data)
			if err != nil {
				t.Fatalf("import: %v", err)
			}

			feeds := randFeeds(orig)
			wantI, err := dnnfusion.InterpretNamed(orig, feeds)
			if err != nil {
				t.Fatalf("interpret original: %v", err)
			}
			gotI, err := dnnfusion.InterpretNamed(imported, feeds)
			if err != nil {
				t.Fatalf("interpret imported: %v", err)
			}
			assertBitExact(t, "interpreter", wantI, gotI)

			for _, threads := range []int{1, 8} {
				ctx := fmt.Sprintf("compiled threads=%d", threads)
				wm, err := dnnfusion.Compile(mm.Build(), dnnfusion.WithThreads(threads))
				if err != nil {
					t.Fatalf("%s: compile original: %v", ctx, err)
				}
				gm, err := dnnfusion.Compile(imported, dnnfusion.WithThreads(threads))
				if err != nil {
					t.Fatalf("%s: compile imported: %v", ctx, err)
				}
				want, err := wm.NewRunner().Run(context.Background(), feeds)
				if err != nil {
					t.Fatalf("%s: run original: %v", ctx, err)
				}
				got, err := gm.NewRunner().Run(context.Background(), feeds)
				if err != nil {
					t.Fatalf("%s: run imported: %v", ctx, err)
				}
				assertBitExact(t, ctx, want, got)
				if mm.Name == "gemm-mlp" {
					if gm.Stats.ChainFusions != 1 {
						t.Errorf("%s: imported Gemm model fused %d chains, want 1", ctx, gm.Stats.ChainFusions)
					}
					assertBitExact(t, ctx+" vs interpreter", gotI, got)
				}
			}
		})
	}
}

// TestRoundTripZooStructural exports each of the Table-5 zoo models
// (shape-only weights) and requires the imported graph to be structurally
// identical: same topological operator sequence, same shapes everywhere,
// same named outputs.
func TestRoundTripZooStructural(t *testing.T) {
	for _, spec := range models.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			orig, err := models.Build(spec.Name)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			data, err := onnx.Export(orig)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			imported, err := onnx.Import(data)
			if err != nil {
				t.Fatalf("import: %v", err)
			}

			wantNodes, gotNodes := orig.TopoSort(), imported.TopoSort()
			if len(gotNodes) != len(wantNodes) {
				t.Fatalf("%d nodes, want %d", len(gotNodes), len(wantNodes))
			}
			for i, wn := range wantNodes {
				gn := gotNodes[i]
				if gn.Op.Type() != wn.Op.Type() {
					t.Fatalf("node %d: op %s, want %s", i, gn.Op.Type(), wn.Op.Type())
				}
				if len(gn.Outputs) != len(wn.Outputs) {
					t.Fatalf("node %d (%s): %d outputs, want %d",
						i, wn.Op.Type(), len(gn.Outputs), len(wn.Outputs))
				}
				for j, wo := range wn.Outputs {
					if !gn.Outputs[j].Shape.Equal(wo.Shape) {
						t.Fatalf("node %d (%s) output %d: shape %v, want %v",
							i, wn.Op.Type(), j, gn.Outputs[j].Shape, wo.Shape)
					}
				}
			}
			if len(imported.Outputs) != len(orig.Outputs) {
				t.Fatalf("%d graph outputs, want %d", len(imported.Outputs), len(orig.Outputs))
			}
			for i, wo := range orig.Outputs {
				go_ := imported.Outputs[i]
				if go_.Name != wo.Name || !go_.Shape.Equal(wo.Shape) {
					t.Fatalf("graph output %d: %s%v, want %s%v",
						i, go_.Name, go_.Shape, wo.Name, wo.Shape)
				}
			}
		})
	}
}

// TestRoundTripZooCompile compiles every imported Table-5 model, the full
// export → import → compile path the importer exists for.
func TestRoundTripZooCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling all zoo models is slow")
	}
	for _, spec := range models.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			orig, err := models.Build(spec.Name)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			data, err := onnx.Export(orig)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			imported, err := onnx.Import(data)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if _, err := dnnfusion.Compile(imported, dnnfusion.WithThreads(1)); err != nil {
				t.Fatalf("compile imported: %v", err)
			}
		})
	}
}
