package rewrite

import (
	"math"
	"testing"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// affineCase is a Conv over a [1, 4, 6, 6] input; tail takes the Conv's
// output and returns the graph's.
type affineCase struct {
	name string
	// depthwise selects groups = C; bias adds a Conv bias input.
	depthwise, bias bool
	tail            func(g *graph.Graph, conv *graph.Value) *graph.Value
}

const affineC = 4

func constOf(g *graph.Graph, name string, seed uint64, dims ...int) *graph.Value {
	t := tensor.New(dims...).Rand(seed)
	for i, v := range t.Data() {
		t.Data()[i] = v*0.5 + 0.75 // (0.25, 1.25): away from zero
	}
	return g.AddWeight(name, t)
}

func buildAffine(c affineCase) *graph.Graph {
	g := graph.New(c.name)
	x := g.AddInput("x", tensor.Of(1, affineC, 6, 6))
	attrs := ops.ConvAttrs{Pads: []int{1}}
	inCh := affineC
	if c.depthwise {
		attrs.Groups, inCh = affineC, 1
	}
	ins := []*graph.Value{x, g.AddWeight("w", tensor.New(affineC, inCh, 3, 3).Rand(5))}
	if c.bias {
		ins = append(ins, g.AddWeight("b", tensor.New(affineC).Rand(6)))
	}
	conv := g.Apply1(ops.NewConv(attrs), ins...)
	g.MarkOutput(c.tail(g, conv))
	return g
}

// mulAdd is the importer's form of a data-carrying BatchNormalization.
func mulAdd(dims ...int) func(g *graph.Graph, v *graph.Value) *graph.Value {
	return func(g *graph.Graph, v *graph.Value) *graph.Value {
		v = g.Apply1(ops.NewMul(), v, constOf(g, "scale", 7, dims...))
		return g.Apply1(ops.NewAdd(), constOf(g, "shift", 8, dims...), v)
	}
}

func bnOf(g *graph.Graph, v *graph.Value, variance []float32, eps float32) *graph.Value {
	p := func(name string, vals ...float32) *graph.Value {
		return g.AddWeight(name, tensor.FromSlice(vals, affineC))
	}
	return g.Apply1(ops.NewBatchNormalization(eps), v,
		p("gamma", 1, 2, 0.5, -1), p("beta", 0.1, -0.2, 0.3, 0), p("mean", 0.05, -0.1, 0.2, 0), p("var", variance...))
}

// TestConvAffineFold folds every form the rule matches into one Conv, in
// one application per chain, and leaves the outputs within the rewrite
// tolerance of the graph as built.
func TestConvAffineFold(t *testing.T) {
	var cases []affineCase
	for _, dw := range []bool{false, true} {
		for _, bias := range []bool{false, true} {
			cases = append(cases,
				affineCase{"mul-add-C11", dw, bias, mulAdd(affineC, 1, 1)},
				affineCase{"mul-add-1C11", dw, bias, mulAdd(1, affineC, 1, 1)},
				affineCase{"bn", dw, bias, func(g *graph.Graph, v *graph.Value) *graph.Value {
					return bnOf(g, v, []float32{1, 0.5, 2, 0.25}, 1e-5)
				}},
			)
		}
	}
	cases = append(cases,
		affineCase{"add-then-mul", false, true, func(g *graph.Graph, v *graph.Value) *graph.Value {
			v = g.Apply1(ops.NewAdd(), v, constOf(g, "shift", 8, affineC, 1, 1))
			return g.Apply1(ops.NewMul(), v, constOf(g, "scale", 7, affineC, 1, 1))
		}},
		affineCase{"scalar-mul-add", false, false, mulAdd()},
		affineCase{"one-element-mul-add", true, false, mulAdd(1)},
		affineCase{"mulconst-addconst", false, false, func(g *graph.Graph, v *graph.Value) *graph.Value {
			return g.Apply1(ops.NewAddConst(0.5), g.Apply1(ops.NewMulConst(-1.5), v))
		}},
		affineCase{"mul-only", true, false, func(g *graph.Graph, v *graph.Value) *graph.Value {
			return g.Apply1(ops.NewMul(), constOf(g, "scale", 7, affineC, 1, 1), v)
		}},
	)
	for _, c := range cases {
		name := c.name
		if c.depthwise {
			name += "/depthwise"
		}
		if c.bias {
			name += "/bias"
		}
		t.Run(name, func(t *testing.T) {
			g := buildAffine(c)
			st := runAndCompare(t, g)
			if st.Applied != 1 || st.ByRule["fold-conv-affine"] != 1 {
				t.Errorf("applications %v, want one fold-conv-affine", st.ByRule)
			}
			if len(g.Nodes) != 1 || g.Nodes[0].Op.Type() != "Conv" {
				t.Fatalf("expected a single folded Conv, got %d nodes", len(g.Nodes))
			}
			wantInputs := 2
			if c.bias || c.name != "mul-only" {
				wantInputs = 3
			}
			if got := len(g.Nodes[0].Inputs); got != wantInputs {
				t.Errorf("folded Conv has %d inputs, want %d", got, wantInputs)
			}
		})
	}
}

// TestConvAffineFoldsStackedConvs folds two runs in one scan where the
// second Conv reads the first run's result: each fold applies once and the
// second Conv reads the first folded Conv.
func TestConvAffineFoldsStackedConvs(t *testing.T) {
	g := graph.New("stacked")
	v := g.AddInput("x", tensor.Of(1, affineC, 6, 6))
	for i := uint64(0); i < 2; i++ {
		w := g.AddWeight("w", tensor.New(affineC, affineC, 3, 3).Rand(5+i))
		v = mulAdd(affineC, 1, 1)(g, g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1}}), v, w))
	}
	g.MarkOutput(v)
	st := runAndCompare(t, g)
	if st.Applied != 2 || st.ByRule["fold-conv-affine"] != 2 {
		t.Errorf("applications %v, want two fold-conv-affine", st.ByRule)
	}
	if len(g.Nodes) != 2 || !opIs(g.Nodes[0], "Conv") || !opIs(g.Nodes[1], "Conv") {
		t.Fatalf("want two folded Convs, got %d nodes", len(g.Nodes))
	}
	if second := g.Nodes[1].Inputs[0]; second.Producer != g.Nodes[0] {
		t.Errorf("second Conv reads %v, not the first folded Conv", second)
	}
}

// TestConvAffineNoFold lists what must stay unfolded: a constant that
// varies over space, a Conv output read twice or returned, a runtime scale,
// and scales that are not finite.
func TestConvAffineNoFold(t *testing.T) {
	mulBy := func(k func(g *graph.Graph) *graph.Value) func(g *graph.Graph, v *graph.Value) *graph.Value {
		return func(g *graph.Graph, v *graph.Value) *graph.Value { return g.Apply1(ops.NewMul(), v, k(g)) }
	}
	finite := []affineCase{
		{"const-CHW", false, false, mulBy(func(g *graph.Graph) *graph.Value { return constOf(g, "k", 7, affineC, 6, 6) })},
		{"const-11HW", false, false, mulBy(func(g *graph.Graph) *graph.Value { return constOf(g, "k", 7, 1, 1, 6, 6) })},
		{"const-widens-rank", false, false, mulBy(func(g *graph.Graph) *graph.Value { return constOf(g, "k", 7, 1, 1, affineC, 1, 1) })},
		{"runtime-scale", false, false, mulBy(func(g *graph.Graph) *graph.Value { return g.AddInput("s", tensor.Of(affineC, 1, 1)) })},
		{"second-consumer", false, false, func(g *graph.Graph, v *graph.Value) *graph.Value {
			m := g.Apply1(ops.NewMul(), v, constOf(g, "k", 7, affineC, 1, 1))
			return g.Apply1(ops.NewSub(), m, g.Apply1(ops.NewRelu(), v))
		}},
		{"graph-output", true, true, func(g *graph.Graph, v *graph.Value) *graph.Value {
			g.MarkOutput(v)
			return g.Apply1(ops.NewMul(), v, constOf(g, "k", 7, affineC, 1, 1))
		}},
	}
	for _, c := range finite {
		t.Run(c.name, func(t *testing.T) {
			g := buildAffine(c)
			assertUnfolded(t, g, runAndCompare(t, g))
		})
	}

	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	nonFinite := []affineCase{
		{"inf-scale", false, false, mulBy(func(g *graph.Graph) *graph.Value {
			return g.AddWeight("k", tensor.FromSlice([]float32{1, inf, 1, 1}, affineC, 1, 1))
		})},
		{"nan-shift", true, false, func(g *graph.Graph, v *graph.Value) *graph.Value {
			return g.Apply1(ops.NewAdd(), v, g.AddWeight("k", tensor.FromSlice([]float32{nan}, 1)))
		}},
		{"inf-mulconst", false, true, func(g *graph.Graph, v *graph.Value) *graph.Value {
			return g.Apply1(ops.NewMulConst(inf), v)
		}},
		{"overflowing-weight", false, false, func(g *graph.Graph, v *graph.Value) *graph.Value {
			// A finite scale whose product with a weight past 1 is not.
			w := v.Producer.Inputs[1].Data.Data()
			for i := range w {
				w[i] *= 4
			}
			return g.Apply1(ops.NewMulConst(math.MaxFloat32), v)
		}},
		{"bn-zero-variance", false, false, func(g *graph.Graph, v *graph.Value) *graph.Value {
			return bnOf(g, v, []float32{1, 0, 2, 0.25}, 0)
		}},
	}
	for _, c := range nonFinite {
		t.Run(c.name, func(t *testing.T) {
			g := buildAffine(c)
			st, err := NewDefaultEngine().Run(ecg.Build(g))
			if err != nil {
				t.Fatal(err)
			}
			assertUnfolded(t, g, st)
		})
	}
}

// assertUnfolded checks the rule never fired and the Conv kept its weights.
func assertUnfolded(t *testing.T, g *graph.Graph, st Stats) {
	t.Helper()
	if st.ByRule["fold-conv-affine"] != 0 {
		t.Errorf("folded: %v", st.ByRule)
	}
	for _, n := range g.Nodes {
		if opIs(n, "Conv") && n.Inputs[1].Name != "w" {
			t.Errorf("Conv weights replaced by %v", n.Inputs[1])
		}
	}
}

// TestConvAffineSymbolicBatchNorm keeps the shape-only path the zoo takes:
// Conv+BatchNormalization over parameters without data becomes one Conv
// over fresh shape-only weights and a bias.
func TestConvAffineSymbolicBatchNorm(t *testing.T) {
	g := graph.New("symbolic")
	x := g.AddInput("x", tensor.Of(1, affineC, 6, 6))
	conv := g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1}}), x, g.AddWeightShape("w", tensor.Of(affineC, affineC, 3, 3)))
	p := func(name string) *graph.Value { return g.AddWeightShape(name, tensor.Of(affineC)) }
	g.MarkOutput(g.Apply1(ops.NewBatchNormalization(1e-5), conv, p("gamma"), p("beta"), p("mean"), p("var")))
	st, err := NewDefaultEngine().Run(ecg.Build(g))
	if err != nil {
		t.Fatal(err)
	}
	if st.ByRule["fold-conv-affine"] != 1 || len(g.Nodes) != 1 {
		t.Fatalf("applications %v, %d nodes; want one fold into one Conv", st.ByRule, len(g.Nodes))
	}
	for _, in := range g.Nodes[0].Inputs[1:] {
		if in.Kind != graph.Weight || in.Data != nil {
			t.Errorf("folded parameter %v should be a shape-only weight", in)
		}
	}
}
