package fusion

import (
	"fmt"
	"slices"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
)

// BuildPlan constructs a Plan from explicit node groups. The baseline
// fixed-pattern fusers (internal/baseline) use it to express their pattern
// matches, and SingletonPlan uses it for the no-fusion configuration, so
// every execution mode flows through the same Block/Plan machinery.
// Groups must partition the graph's nodes; a group that holds a whole
// detected contraction chain becomes that chain's block.
func BuildPlan(e *ecg.ECG, groups [][]*graph.Node) (*Plan, error) {
	plan := newPlan(e)
	for i, nodes := range groups {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("fusion: empty group %d", i)
		}
		b := &Block{
			Seed:    nodes[0],
			Nodes:   append([]*graph.Node(nil), nodes...),
			nodeSet: make(map[*graph.Node]bool, len(nodes)),
		}
		b.Mapping = e.Mapping(nodes[0])
		for j, n := range nodes {
			if plan.blockOf[n] != nil {
				return nil, fmt.Errorf("fusion: node %v in two groups", n)
			}
			b.nodeSet[n] = true
			plan.blockOf[n] = b
			if j > 0 {
				b.Mapping, _ = Combine(b.Mapping, e.Mapping(n))
			}
		}
		plan.Blocks = append(plan.Blocks, b)
	}
	if len(plan.blockOf) != len(e.G.Nodes) {
		return nil, fmt.Errorf("fusion: groups cover %d of %d nodes", len(plan.blockOf), len(e.G.Nodes))
	}
	plan.sortBlocksTopo()
	// A block holding every member of a detected chain is that chain's
	// block: Table 3 never puts two contractions in one block, so nothing
	// but chain fusion can have produced it.
	for _, c := range DetectChains(e) {
		b := plan.blockOf[c.Consumer]
		if b.Chain == nil && !slices.ContainsFunc(c.Nodes(), func(n *graph.Node) bool { return !b.nodeSet[n] }) {
			b.Chain = c
			plan.ChainFusions++
		}
	}
	return plan, nil
}

// FromPartition rebuilds the plan that part names (see Plan.Partition):
// the inverse of Partition, and the one way a plan is cloned, persisted
// and replayed. A partition may come from a file, so a wrong length, a
// numbering that is not first-use order, or blocks that depend on each
// other are errors.
func FromPartition(e *ecg.ECG, part []int) (*Plan, error) {
	order := e.G.TopoSort()
	if len(part) != len(order) {
		return nil, fmt.Errorf("fusion: partition names %d nodes, the graph has %d", len(part), len(order))
	}
	var groups [][]*graph.Node
	for i, b := range part {
		if b < 0 || b > len(groups) {
			return nil, fmt.Errorf("fusion: partition entry %d is block %d, first-use order allows 0..%d", i, b, len(groups))
		}
		if b == len(groups) {
			groups = append(groups, nil)
		}
		groups[b] = append(groups[b], order[i])
	}
	plan, err := BuildPlan(e, groups)
	if err != nil {
		return nil, err
	}
	// A cycle between blocks passes through a block of two or more nodes
	// (the graph itself is acyclic), so checking those finds every one.
	for _, b := range plan.Blocks {
		if b.Size() > 1 && plan.cyclic(b.Contains, b.Nodes) {
			return nil, fmt.Errorf("fusion: partition block %d and another block depend on each other", b.ID)
		}
	}
	return plan, nil
}

// SingletonPlan puts every operator in its own block — the paper's OurB
// (no-fusion) configuration.
func SingletonPlan(e *ecg.ECG) *Plan {
	groups := make([][]*graph.Node, 0, len(e.G.Nodes))
	for _, n := range e.G.TopoSort() {
		groups = append(groups, []*graph.Node{n})
	}
	plan, err := BuildPlan(e, groups)
	if err != nil {
		// Unreachable: singleton groups always partition the graph.
		panic(err)
	}
	return plan
}
