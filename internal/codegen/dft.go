package codegen

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

// DFT is the data-flow tree of a fusion block (paper Figure 4): edges point
// from each result to the values it depends on (reversed relative to the
// graph), with one root per block output. Nodes shared between roots or
// reached twice are common subtrees; they are identified and counted once
// (common-subtree elimination).
type DFT struct {
	Block *fusion.Block
	Roots []*graph.Value // block outputs
	// Shared lists interior nodes referenced more than once; their FLOPs
	// are counted once (common sub-tree identification, §4.4.1).
	Shared []*graph.Node
	// FoldedMovement lists interior data-movement nodes folded into index
	// arithmetic (intra-block optimization, Figure 5).
	FoldedMovement []*graph.Node
	// FLOPs is the fused kernel's work with CSE applied; NaiveFLOPs is
	// what tree-shaped recomputation would cost.
	FLOPs      int64
	NaiveFLOPs int64
}

// BuildDFT constructs the data-flow tree of a block.
func BuildDFT(b *fusion.Block) *DFT {
	d := &DFT{Block: b, Roots: b.Outputs()}

	// Reference counts of interior nodes over the reversed edges.
	refs := map[*graph.Node]int{}
	for _, n := range b.Nodes {
		for _, in := range n.Inputs {
			if in.Producer != nil && b.Contains(in.Producer) {
				refs[in.Producer]++
			}
		}
	}
	for _, root := range d.Roots {
		if root.Producer != nil && b.Contains(root.Producer) {
			refs[root.Producer]++
		}
	}
	for _, n := range b.Nodes {
		if refs[n] > 1 {
			d.Shared = append(d.Shared, n)
		}
		if isFoldableMovement(b, n) {
			d.FoldedMovement = append(d.FoldedMovement, n)
		}
		d.FLOPs += nodeFLOPs(n)
	}
	sort.Slice(d.Shared, func(i, j int) bool { return d.Shared[i].ID < d.Shared[j].ID })
	sort.Slice(d.FoldedMovement, func(i, j int) bool {
		return d.FoldedMovement[i].ID < d.FoldedMovement[j].ID
	})

	// Naive cost: full tree expansion (each shared subtree recomputed at
	// every reference).
	memo := map[*graph.Node]int64{}
	var treeCost func(n *graph.Node) int64
	treeCost = func(n *graph.Node) int64 {
		if v, ok := memo[n]; ok {
			return v
		}
		total := nodeFLOPs(n)
		for _, in := range n.Inputs {
			if in.Producer != nil && b.Contains(in.Producer) {
				total += treeCost(in.Producer)
			}
		}
		memo[n] = total
		return total
	}
	for _, root := range d.Roots {
		if root.Producer != nil && b.Contains(root.Producer) {
			d.NaiveFLOPs += treeCost(root.Producer)
		}
	}
	if d.NaiveFLOPs < d.FLOPs {
		d.NaiveFLOPs = d.FLOPs
	}
	return d
}

// CSESavings is the FLOPs avoided by common-subtree elimination.
func (d *DFT) CSESavings() int64 { return d.NaiveFLOPs - d.FLOPs }

// isFoldableMovement reports whether n is a pure data-movement operator
// whose outputs stay inside the block: its materialization is eliminated
// and replaced by an index transform (Figure 5).
func isFoldableMovement(b *fusion.Block, n *graph.Node) bool {
	return ops.IsMovement(n.Op) && !slices.ContainsFunc(n.Outputs, b.Escapes)
}

func nodeFLOPs(n *graph.Node) int64 {
	shapes := make([]tensor.Shape, len(n.Inputs))
	for i, in := range n.Inputs {
		shapes[i] = in.Shape
	}
	return n.Op.FLOPs(shapes)
}

// StructuralKey canonicalizes the block for the kernel cache: operators,
// attributes, internal wiring, and exterior shapes — but no model-specific
// names — so an identical fused pattern in another model hits the cache
// (§4.4.1: "once a new operator is generated ... it can be used for both
// the current model and future models").
func StructuralKey(b *fusion.Block) string {
	// Deterministic node order: by topological level then ID.
	nodes := append([]*graph.Node(nil), b.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	localID := map[*graph.Node]int{}
	for i, n := range nodes {
		localID[n] = i
	}
	extID := map[*graph.Value]int{}
	var sb strings.Builder
	for i, n := range nodes {
		fmt.Fprintf(&sb, "%d:%s(", i, opKey(n))
		for j, in := range n.Inputs {
			if j > 0 {
				sb.WriteByte(',')
			}
			if in.Producer != nil && b.Contains(in.Producer) {
				fmt.Fprintf(&sb, "n%d.%d", localID[in.Producer], in.ProducerOut)
			} else {
				id, ok := extID[in]
				if !ok {
					id = len(extID)
					extID[in] = id
				}
				kind := "x"
				if in.IsConst() {
					kind = "w"
				}
				fmt.Fprintf(&sb, "%s%d%s", kind, id, in.Shape)
			}
		}
		sb.WriteString(");")
	}
	return sb.String()
}

func opKey(n *graph.Node) string {
	k := n.Op.AttrKey()
	if k == "" {
		return n.Op.Type()
	}
	return n.Op.Type() + "[" + k + "]"
}
