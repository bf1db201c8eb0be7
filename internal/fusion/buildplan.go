package fusion

import (
	"fmt"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
)

// BuildPlan constructs a Plan from explicit node groups. The baseline
// fixed-pattern fusers (internal/baseline) use it to express their pattern
// matches, and SingletonPlan uses it for the no-fusion configuration, so
// every execution mode flows through the same Block/Plan machinery.
// Groups must partition the graph's nodes.
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
