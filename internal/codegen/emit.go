package codegen

import (
	"fmt"
	"sort"
	"strings"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
)

// Source renders the kernel as C-like source for the mobile CPU backend or
// OpenCL-like source for the mobile GPU backend. In the paper's system the
// text is compiled by the device toolchain; here it documents what the
// pull-model executor computes (loop nests, index folding, shared-subtree
// temporaries), so it is rendered only when asked for, not at compile time.
// The temporaries are exact for pointwise values: a shared value whose
// references are all pointwise operators of its own shape is one instruction
// of one ops program, evaluated once per element. A shared value read through
// a reduction, a contraction or a view is still evaluated once per reference
// by the executor, whatever the rendered text hoists.
func (k *Kernel) Source(b Backend) string {
	var sb strings.Builder
	name := k.Name
	if b == GPU {
		name += "_cl"
	}

	fmt.Fprintf(&sb, "// fused operator: %s\n", blockOpNames(k))
	fmt.Fprintf(&sb, "// mapping type: %v; layout: %s (dominant op %s)\n",
		k.Block.Mapping, k.Layout, k.DominantOp)
	if len(k.Rules) > 0 {
		fmt.Fprintf(&sb, "// codegen rules:")
		for _, r := range k.Rules {
			fmt.Fprintf(&sb, " [%v+%v→%s]", r.First, r.Second, r.Strategy)
		}
		sb.WriteString("\n")
	}
	if len(k.DFT.Shared) > 0 {
		fmt.Fprintf(&sb, "// common subtrees hoisted: %d (saves %d FLOPs)\n",
			len(k.DFT.Shared), k.DFT.CSESavings())
	}
	if len(k.DFT.FoldedMovement) > 0 {
		fmt.Fprintf(&sb, "// data movement folded to index arithmetic: %d op(s)\n",
			len(k.DFT.FoldedMovement))
	}

	params := make([]string, 0, len(k.Inputs)+len(k.Outputs))
	names := map[*graph.Value]string{}
	for i, in := range k.Inputs {
		n := fmt.Sprintf("in%d", i)
		if in.IsConst() {
			n = fmt.Sprintf("w%d", i)
		}
		names[in] = n
		qual := "const float* restrict"
		if b == GPU {
			qual = "__global const float*"
		}
		params = append(params, fmt.Sprintf("%s %s /*%s*/", qual, n, in.Shape))
	}
	for i, out := range k.Outputs {
		n := fmt.Sprintf("out%d", i)
		names[out] = n
		qual := "float* restrict"
		if b == GPU {
			qual = "__global float*"
		}
		params = append(params, fmt.Sprintf("%s %s /*%s*/", qual, n, out.Shape))
	}
	if b == GPU {
		fmt.Fprintf(&sb, "__kernel void %s(%s) {\n", name, strings.Join(params, ", "))
	} else {
		fmt.Fprintf(&sb, "void %s(%s) {\n", name, strings.Join(params, ", "))
	}

	p := &printer{k: k, names: names, temps: map[*graph.Node]string{}}
	for oi, out := range k.Outputs {
		p.emitOutput(&sb, b, oi, out)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func blockOpNames(k *Kernel) string {
	names := make([]string, len(k.Block.Nodes))
	for i, n := range k.Block.Nodes {
		names[i] = n.Op.Type()
	}
	return strings.Join(names, "+")
}

type printer struct {
	k     *Kernel
	names map[*graph.Value]string
	temps map[*graph.Node]string
}

func (p *printer) emitOutput(sb *strings.Builder, b Backend, oi int, out *graph.Value) {
	rank := out.Shape.Rank()
	indent := "  "
	idxVars := make([]string, rank)
	if b == GPU {
		fmt.Fprintf(sb, "%s// one work-item per element of out%d\n", indent, oi)
		fmt.Fprintf(sb, "%ssize_t gid%d = get_global_id(%d);\n", indent, oi, oi)
		for i := 0; i < rank; i++ {
			idxVars[i] = fmt.Sprintf("i%d_%d", oi, i)
		}
		fmt.Fprintf(sb, "%s/* decompose gid%d into (%s) over %s */\n",
			indent, oi, strings.Join(idxVars, ", "), out.Shape)
	} else {
		for i := 0; i < rank; i++ {
			idxVars[i] = fmt.Sprintf("i%d_%d", oi, i)
			fmt.Fprintf(sb, "%sfor (int %s = 0; %s < %d; %s++) {\n",
				indent, idxVars[i], idxVars[i], out.Shape[i], idxVars[i])
			indent += "  "
		}
		if rank == 0 {
			sb.WriteString(indent + "{\n")
			indent += "  "
		}
	}

	// Hoist shared subtrees reachable from this root as temporaries (what the
	// executor does for pointwise references; see Source).
	shared := map[*graph.Node]bool{}
	for _, n := range p.k.DFT.Shared {
		shared[n] = true
	}
	var hoisted []*graph.Node
	seen := map[*graph.Node]bool{}
	var collect func(v *graph.Value)
	collect = func(v *graph.Value) {
		n := v.Producer
		if n == nil || !p.k.Block.Contains(n) || seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			collect(in)
		}
		if shared[n] {
			hoisted = append(hoisted, n)
		}
	}
	collect(out)
	sort.Slice(hoisted, func(i, j int) bool { return hoisted[i].ID < hoisted[j].ID })
	for _, n := range hoisted {
		if _, done := p.temps[n]; done {
			continue
		}
		tmp := fmt.Sprintf("t%d", n.ID)
		expr := p.expr(n.Inputs, n, idxVars, true)
		fmt.Fprintf(sb, "%sfloat %s = %s; // shared subtree\n", indent, tmp, expr)
		p.temps[n] = tmp
	}

	expr := p.value(out, idxVars)
	fmt.Fprintf(sb, "%s%s[%s] = %s;\n", indent, p.names[out], strings.Join(idxVars, "]["), expr)
	if b == GPU {
		return
	}
	closes := rank
	if rank == 0 {
		closes = 1
	}
	for i := 0; i < closes; i++ {
		indent = indent[:len(indent)-2]
		fmt.Fprintf(sb, "%s}\n", indent)
	}
}

// value renders the expression computing v at the given index variables.
func (p *printer) value(v *graph.Value, idx []string) string {
	n := v.Producer
	if n == nil || !p.k.Block.Contains(n) {
		return fmt.Sprintf("%s[%s]", p.names[v], strings.Join(broadcastIdx(v, idx), ","))
	}
	if tmp, ok := p.temps[n]; ok {
		return tmp
	}
	return p.expr(n.Inputs, n, idx, false)
}

// broadcastIdx right-aligns the index variables against the value's rank
// and zeroes broadcast (size-1) dimensions, matching runtime semantics.
func broadcastIdx(v *graph.Value, idx []string) []string {
	rank := v.Shape.Rank()
	if rank == 0 {
		return []string{"0"}
	}
	if rank > len(idx) {
		return idx
	}
	out := make([]string, rank)
	off := len(idx) - rank
	for i := 0; i < rank; i++ {
		if v.Shape[i] == 1 {
			out[i] = "0"
		} else {
			out[i] = idx[off+i]
		}
	}
	return out
}

// expr renders an operator application. Data-movement operators become
// index transforms (intra-block optimization); heavy operators become
// reduction pseudo-loops; pointwise operators compose scalar expressions.
func (p *printer) expr(ins []*graph.Value, n *graph.Node, idx []string, forTemp bool) string {
	opT := n.Op.Type()
	if ops.IsMovement(n.Op) {
		// Index fold: the consumer reads through the transform.
		return fmt.Sprintf("/*%s:index-fold*/ %s", strings.ToLower(opT),
			p.value(ins[0], remap(opT, idx)))
	}
	switch opT {
	case "Add", "Sub", "Mul", "Div", "Min", "Max", "PowT":
		sym := map[string]string{"Add": "+", "Sub": "-", "Mul": "*", "Div": "/",
			"Min": "fmin", "Max": "fmax", "PowT": "powf"}[opT]
		a, b := p.value(ins[0], idx), p.value(ins[1], idx)
		if sym == "+" || sym == "-" || sym == "*" || sym == "/" {
			return fmt.Sprintf("(%s %s %s)", a, sym, b)
		}
		return fmt.Sprintf("%s(%s, %s)", sym, a, b)
	case "Conv", "ConvTranspose", "MatMul", "Gemm", "Einsum":
		args := make([]string, len(ins))
		for i, in := range ins {
			args[i] = p.value(in, []string{"k..."})
		}
		return fmt.Sprintf("reduce_mac[%s](%s)", strings.ToLower(opT), strings.Join(args, ", "))
	case "Softmax", "LogSoftmax", "ReduceSum", "ReduceMean", "ReduceProd",
		"ReduceMax", "ReduceMin", "CumSum", "MaxPool", "AveragePool",
		"GlobalAveragePool", "InstanceNormalization":
		return fmt.Sprintf("reduce[%s](%s)", strings.ToLower(opT), p.value(ins[0], []string{"r..."}))
	case "Gather":
		return fmt.Sprintf("%s[idx(%s)]", p.value(ins[0], []string{"g..."}),
			p.value(ins[1], idx))
	case "Where":
		return fmt.Sprintf("(%s ? %s : %s)", p.value(ins[0], idx), p.value(ins[1], idx), p.value(ins[2], idx))
	case "BatchNormalization":
		return fmt.Sprintf("bnorm(%s)", p.value(ins[0], idx))
	default:
		// Unary pointwise and everything else: functional form.
		args := make([]string, len(ins))
		for i, in := range ins {
			args[i] = p.value(in, idx)
		}
		return fmt.Sprintf("%s(%s)", strings.ToLower(opT), strings.Join(args, ", "))
	}
}

// remap annotates index variables with the movement op's transform.
func remap(opT string, idx []string) []string {
	out := make([]string, len(idx))
	for i, v := range idx {
		out[i] = fmt.Sprintf("σ_%s(%s)", strings.ToLower(opT), v)
	}
	if len(out) == 0 {
		out = []string{"σ_" + strings.ToLower(opT)}
	}
	return out
}
