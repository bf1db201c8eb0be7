package rewrite

import (
	"fmt"
	"math"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// Folding rules: compile-time evaluation of constant subgraphs and the
// per-channel affine (BatchNormalization and its Mul+Add form) folded into
// the preceding Conv.

// constFoldLimit bounds the FLOPs a compile-time evaluation may spend so
// rewriting stays light-weight.
const constFoldLimit = 1 << 22

// ruleConstFold evaluates operators whose inputs are all compile-time
// constants, replacing them with weight values.
func ruleConstFold() *Rule {
	return &Rule{
		Name:  "fold-constants",
		Cat:   Folding,
		Forms: []string{"op(c1, ..., ck) → eval(op)(c1, ..., ck) for constant ci"},
		Match: func(c *Ctx, n *graph.Node) []*Application {
			if len(n.Inputs) == 0 {
				return nil
			}
			var removedBytes int64
			for _, in := range n.Inputs {
				if !in.IsConst() {
					return nil
				}
			}
			for _, out := range n.Outputs {
				if out.Kind == graph.Output {
					return nil // keep graph outputs producer-backed
				}
				removedBytes += out.Shape.Bytes()
			}
			fl := nodeFLOPs(n)
			if fl > constFoldLimit {
				return nil
			}
			app := &Application{
				Rule:       "fold-constants",
				Cat:        Folding,
				Root:       n,
				DeltaFLOPs: fl,
				DeltaBytes: removedBytes,
				apply: func(c *Ctx) error {
					ins := make([]*tensor.Tensor, len(n.Inputs))
					for i, in := range n.Inputs {
						ins[i] = in.Data
					}
					outs, err := ops.Eval(n.Op, ins)
					if err != nil {
						return err
					}
					for o, out := range n.Outputs {
						cv := c.newConst(outs[o])
						if err := c.G.ReplaceAllUses(out, cv); err != nil {
							return err
						}
					}
					return nil
				},
			}
			return []*Application{app}
		},
	}
}

// ruleConvAffineFold: a per-output-channel affine after a Conv folds into
// the Conv — s·Conv(X, W, b) + t → Conv(X, W·s, b·s + t) — with s and t
// composed over the whole run of affine steps in float64 and each folded
// weight rounded once. A step is a Mul or Add by a constant that varies
// along the channel axis only, a MulConst or AddConst, or an inference
// BatchNormalization (s = γ/√(σ²+ε), t = β − μ·s): what every mobile
// framework folds, and what an importer leaves of a BatchNormalization
// layer. The whole run folds at once, matched at its last step; it folds
// only when every intermediate has a single use and is not a graph output,
// and every folded constant is finite. A BatchNormalization over shape-only
// parameters folds symbolically into fresh shape-only weights (computed at
// deploy time in the paper's system). MatMul has no bias slot and is left
// alone. Runs never share a node, so one scan's folds are independent.
func ruleConvAffineFold() *Rule {
	return &Rule{
		Name:        "fold-conv-affine",
		Cat:         Folding,
		Independent: true,
		Forms: []string{
			"Mul(Conv(X, W, b), s) → Conv(X, W·s, b·s)",
			"Add(Conv(X, W, b), t) → Conv(X, W, b + t)",
			"MulConst_c(Conv(X, W, b)) → Conv(X, W·c, b·c)",
			"AddConst_c(Conv(X, W, b)) → Conv(X, W, b + c)",
			"BatchNorm(Conv(X, W, b)) → Conv(X, W·s, (b−μ)·s + β)",
		},
		Match: matchConvAffine,
	}
}

// channelAffine is one step y = scale·x + shift of a fold, recognized from
// the graph's structure alone; its values are read (at) only once the run
// is known to end at a Conv.
type channelAffine struct {
	node     *graph.Node
	x        *graph.Value // the value the step applies to
	k        *graph.Value // a Mul or Add's constant
	symbolic bool         // a BatchNormalization with shape-only parameters
}

// affineOf recognizes n as a per-channel affine step over a [N, C, S...]
// value.
func affineOf(n *graph.Node) (channelAffine, bool) {
	if n == nil {
		return channelAffine{}, false
	}
	a := channelAffine{node: n, x: n.Inputs[0]}
	switch n.Op.Type() {
	case "Mul", "Add":
		a.k = n.Inputs[1]
		if !a.k.IsConst() {
			a.x, a.k = a.k, a.x
		}
		return a, a.k.IsConst() && !a.x.IsConst() && channelOnly(a.k.Shape, a.x.Shape) && out0(n).Shape.Equal(a.x.Shape)
	case "MulConst", "AddConst":
		return a, true
	case "BatchNormalization":
		for _, p := range n.Inputs[1:] {
			if p.Kind != graph.Weight {
				return a, false
			}
			a.symbolic = a.symbolic || p.Data == nil
		}
		return a, true
	}
	return a, false
}

// shifts reports whether the step adds a shift.
func (a channelAffine) shifts() bool {
	t := a.node.Op.Type()
	return t != "Mul" && t != "MulConst"
}

// at returns the step's scale and shift on output channel m of a numeric
// run; a one-element constant broadcasts over the channels.
func (a channelAffine) at(m int) (scale, shift float64) {
	switch a.node.Op.Type() {
	case "Mul":
		d := a.k.Data.Data()
		return float64(d[m%len(d)]), 0
	case "Add":
		d := a.k.Data.Data()
		return 1, float64(d[m%len(d)])
	case "MulConst":
		_, c, _ := ops.ScalarConst(a.node.Op)
		return float64(c), 0
	case "AddConst":
		_, c, _ := ops.ScalarConst(a.node.Op)
		return 1, float64(c)
	}
	eps, _ := ops.BatchNormEps(a.node.Op)
	p := func(i int) float64 { return float64(a.node.Inputs[i].Data.AtOffset(m)) }
	scale = p(1) / math.Sqrt(p(4)+float64(eps))
	return scale, p(2) - p(3)*scale
}

// channelOnly reports whether a constant of shape k, broadcast against a
// [N, C, S...] value of shape x, varies along the channel axis at most.
func channelOnly(k, x tensor.Shape) bool {
	if x.Rank() < 2 || k.Rank() > x.Rank() {
		return false
	}
	for i, d := range k {
		if d != 1 && (i+x.Rank()-k.Rank() != 1 || d != x[1]) {
			return false
		}
	}
	return true
}

// matchConvAffine offers the fold of the affine run ending at n.
func matchConvAffine(c *Ctx, n *graph.Node) []*Application {
	last, ok := affineOf(n)
	if !ok {
		return nil
	}
	if out := out0(n); singleUse(out) {
		if next, ok := affineOf(out.Consumers[0]); ok && next.x == out {
			return nil // the run goes on: it is matched at its end
		}
	}
	chain := []channelAffine{last} // outermost step first
	v := last.x
	for !opIs(producer(v), "Conv") {
		a, ok := affineOf(producer(v))
		if !ok || !singleUse(v) {
			return nil
		}
		chain = append(chain, a)
		v = a.x
	}
	if !singleUse(v) {
		return nil
	}
	convNode := producer(v)
	w := convNode.Inputs[1]
	var bias *graph.Value
	if len(convNode.Inputs) == 3 {
		bias = convNode.Inputs[2]
	}
	if w.Kind != graph.Weight || (bias != nil && bias.Kind != graph.Weight) {
		return nil
	}
	numeric := w.Data != nil && (bias == nil || bias.Data != nil)
	withBias := bias != nil
	for _, a := range chain {
		numeric = numeric && !a.symbolic
		withBias = withBias || a.shifts() || a.symbolic
	}
	if !numeric && (len(chain) > 1 || !opIs(n, "BatchNormalization")) {
		return nil
	}
	m := w.Shape[0]

	var wNew, bNew *tensor.Tensor
	if numeric {
		if wNew, bNew, ok = foldAffine(w.Data, bias, chain, m, withBias); !ok {
			return nil
		}
	}
	newShapes := []tensor.Shape{convNode.Inputs[0].Shape, w.Shape}
	if withBias {
		newShapes = append(newShapes, tensor.Of(m))
	}
	var removed int64
	for _, a := range chain {
		removed += nodeFLOPs(a.node)
	}
	convOp := convNode.Op
	return []*Application{{
		Rule:       "fold-conv-affine",
		Cat:        Folding,
		Root:       n,
		DeltaFLOPs: removed - (convOp.FLOPs(newShapes) - nodeFLOPs(convNode)),
		DeltaBytes: int64(len(chain)) * out0(convNode).Shape.Bytes(),
		apply: func(c *Ctx) error {
			// Read X now: a fold applied earlier in the same scan may have
			// replaced the value feeding this Conv.
			x := convNode.Inputs[0]
			var ins []*graph.Value
			if numeric {
				ins = []*graph.Value{x, c.newConst(wNew)}
				if bNew != nil {
					ins = append(ins, c.newConst(bNew))
				}
			} else {
				c.nextConst++
				wV := c.G.AddWeightShape(fmt.Sprintf("rewrite_const_%d", c.nextConst), w.Shape)
				c.nextConst++
				bV := c.G.AddWeightShape(fmt.Sprintf("rewrite_const_%d", c.nextConst), tensor.Of(m))
				ins = []*graph.Value{x, wV, bV}
			}
			outs, err := c.G.Apply(convOp, ins...)
			if err != nil {
				return err
			}
			return replaceWith(c, n, outs[0])
		},
	}}
}

// foldAffine composes the chain (outermost step first) into one per-channel
// scale s and shift t in float64 and returns W·s and, when withBias, b·s + t
// over the m output channels. ok is false when any folded value is not
// finite.
func foldAffine(w *tensor.Tensor, bias *graph.Value, chain []channelAffine, m int, withBias bool) (wNew, bNew *tensor.Tensor, ok bool) {
	s, t := make([]float64, m), make([]float64, m)
	for i := range s {
		s[i] = 1
		for j := len(chain) - 1; j >= 0; j-- {
			a, b := chain[j].at(i)
			s[i], t[i] = s[i]*a, t[i]*a+b
		}
	}
	wNew = tensor.New(w.Shape()...)
	src, dst := w.Data(), wNew.Data()
	perOut := len(src) / m
	for i := 0; i < m; i++ {
		row, out := src[i*perOut:(i+1)*perOut], dst[i*perOut:(i+1)*perOut]
		for k, v := range row {
			f := float32(float64(v) * s[i])
			if f-f != 0 { // ±Inf or NaN
				return nil, nil, false
			}
			out[k] = f
		}
	}
	if !withBias {
		return wNew, nil, true
	}
	bNew = tensor.New(m)
	for i := range bNew.Data() {
		b0 := 0.0
		if bias != nil {
			b0 = float64(bias.Data.AtOffset(i))
		}
		f := float32(b0*s[i] + t[i])
		if f-f != 0 {
			return nil, nil, false
		}
		bNew.Data()[i] = f
	}
	return wNew, bNew, true
}
