// Package rewrite implements DNNFusion's mathematical-property-based graph
// rewriting (paper §4.2): strength-reduction-style rules over tensor
// operators, driven by associative, distributive and commutative properties,
// applied greedily by FLOPs reduction until fixpoint.
//
// The engine mirrors the paper's search strategy: the ECG is partitioned at
// operators that have none of the three properties (partition points);
// within each partition all rule matches are collected and the one with the
// largest #FLOPs reduction is applied, repeating until no rule matches.
package rewrite

import (
	"fmt"
	"sort"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
)

// Category classifies a rule per the paper's Table 4, plus the
// data-movement and folding families of §4.4.2/Figure 5.
type Category int

const (
	Associative Category = iota
	Distributive
	Commutative
	Simplification // identity/strength reduction (Exp∘Log, Recip∘Recip, ...)
	Folding        // constant folding, Conv per-channel affine folding
)

var categoryNames = [...]string{"Associative", "Distributive", "Commutative", "Simplification", "Folding"}

func (c Category) String() string { return categoryNames[c] }

// Ctx gives rules access to the graph being rewritten.
type Ctx struct {
	E *ecg.ECG
	G *graph.Graph
	// fresh names for constants materialized by rules
	nextConst int
}

// Application is one possible rewrite at a specific site.
type Application struct {
	Rule string
	Cat  Category
	Root *graph.Node
	// DeltaFLOPs is the exact FLOPs reduction (removed minus added);
	// zero-delta applications are allowed when DeltaBytes is positive or
	// the rule is marked memory-beneficial (the paper's § rules).
	DeltaFLOPs int64
	// DeltaBytes is the intermediate-bytes reduction.
	DeltaBytes int64
	apply      func(*Ctx) error
	// independent is set by the engine from the rule's Independent.
	independent bool
}

func (a *Application) String() string {
	return fmt.Sprintf("%s@%v (ΔFLOPs=%d, Δbytes=%d)", a.Rule, a.Root, a.DeltaFLOPs, a.DeltaBytes)
}

// beneficial reports whether applying gains anything under the paper's
// FLOPs-first metric.
func (a *Application) beneficial() bool {
	if a.DeltaFLOPs > 0 {
		return true
	}
	return a.DeltaFLOPs == 0 && a.DeltaBytes > 0
}

// Rule is a local pattern matcher.
type Rule struct {
	Name string
	Cat  Category
	// Forms lists the concrete equation instances the matcher covers
	// (the paper reports 45/38/66 derived rules; Forms makes our
	// equivalent enumeration explicit and printable in Table 4).
	Forms []string
	Match func(c *Ctx, n *graph.Node) []*Application
	// Independent marks a rule whose applications found in one scan never
	// share a node, so each stays valid, with its gain, whichever is
	// applied first. The engine then applies a run of them from one scan
	// instead of rescanning the graph after each.
	Independent bool
}

// Stats summarizes one rewriting run.
type Stats struct {
	Applied        int
	ByCategory     map[Category]int
	ByRule         map[string]int
	FLOPsBefore    int64
	FLOPsAfter     int64
	BytesBefore    int64
	BytesAfter     int64
	NodesBefore    int
	NodesAfter     int
	PartitionCount int
	// Matched counts, per rule, the distinct sites at which the rule
	// offered an application, applied or not.
	Matched map[string]int
}

// Engine drives rule application.
type Engine struct {
	rules []*Rule
}

// NewEngine creates an engine with the given rules (use DefaultRules for
// the paper's full set).
func NewEngine(rules []*Rule) *Engine { return &Engine{rules: rules} }

// Rules returns the engine's rule set.
func (e *Engine) Rules() []*Rule { return e.rules }

// Run rewrites the graph to fixpoint and returns statistics.
func (e *Engine) Run(ec *ecg.ECG) (Stats, error) {
	g := ec.G
	c := &Ctx{E: ec, G: g}
	st := Stats{
		ByCategory:     map[Category]int{},
		ByRule:         map[string]int{},
		Matched:        map[string]int{},
		FLOPsBefore:    g.FLOPs(),
		BytesBefore:    g.IntermediateBytes(),
		NodesBefore:    len(g.Nodes),
		PartitionCount: len(Partitions(ec)),
	}
	// Safety cap: every application strictly reduces (FLOPs, bytes) or is
	// once-safe, but defend against a buggy rule oscillating.
	maxIters := 10*len(g.Nodes) + 100
	sites := map[string]map[*graph.Node]bool{}
	for iter := 0; iter < maxIters; iter++ {
		apps := e.bestApplications(c, sites)
		if len(apps) == 0 {
			break
		}
		for _, app := range apps {
			if err := app.apply(c); err != nil {
				return st, fmt.Errorf("rewrite %s: %w", app.Rule, err)
			}
			st.Applied++
			st.ByCategory[app.Cat]++
			st.ByRule[app.Rule]++
		}
		g.EliminateDeadNodes()
		ec.Refresh()
	}
	for rule, roots := range sites {
		st.Matched[rule] = len(roots)
	}
	st.FLOPsAfter = g.FLOPs()
	st.BytesAfter = g.IntermediateBytes()
	st.NodesAfter = len(g.Nodes)
	if err := g.Validate(); err != nil {
		return st, fmt.Errorf("rewrite: graph invalid after rewriting: %w", err)
	}
	return st, nil
}

// bestApplications returns the beneficial applications of one scan that
// the one-at-a-time greedy loop would apply next: the one with the largest
// gain, then, when its rule is Independent, the next ones in gain order for
// as long as they belong to the same rule. It records every offered
// application's site in sites.
func (e *Engine) bestApplications(c *Ctx, sites map[string]map[*graph.Node]bool) []*Application {
	var beneficial []*Application
	for _, n := range c.G.Nodes {
		for _, r := range e.rules {
			for _, app := range r.Match(c, n) {
				if app == nil {
					continue
				}
				if sites[app.Rule] == nil {
					sites[app.Rule] = map[*graph.Node]bool{}
				}
				sites[app.Rule][app.Root] = true
				if app.beneficial() {
					app.independent = r.Independent
					beneficial = append(beneficial, app)
				}
			}
		}
	}
	if len(beneficial) == 0 {
		return nil
	}
	// Larger FLOPs gain first, then larger bytes gain, then scan order.
	sort.SliceStable(beneficial, func(i, j int) bool {
		a, b := beneficial[i], beneficial[j]
		return a.DeltaFLOPs > b.DeltaFLOPs || (a.DeltaFLOPs == b.DeltaFLOPs && a.DeltaBytes > b.DeltaBytes)
	})
	best := beneficial[0]
	run := 1
	for best.independent && run < len(beneficial) && beneficial[run].Rule == best.Rule {
		run++
	}
	return beneficial[:run]
}

// Partitions computes the paper's sub-graphs: connected components over
// nodes that carry at least one mathematical property, using operators with
// no properties as partition points. Associative/commutative matching is
// NP-complete in general; bounding it to these components keeps the search
// tractable (§4.2).
func Partitions(ec *ecg.ECG) [][]*graph.Node {
	inPartition := func(n *graph.Node) bool {
		return !n.Op.Properties().None()
	}
	visited := map[*graph.Node]bool{}
	var parts [][]*graph.Node
	for _, start := range ec.G.Nodes {
		if visited[start] || !inPartition(start) {
			continue
		}
		var comp []*graph.Node
		stack := []*graph.Node{start}
		visited[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			neighbors := func(m *graph.Node) {
				if m != nil && !visited[m] && inPartition(m) {
					visited[m] = true
					stack = append(stack, m)
				}
			}
			for _, in := range n.Inputs {
				neighbors(in.Producer)
			}
			for _, out := range n.Outputs {
				for _, consumer := range out.Consumers {
					neighbors(consumer)
				}
			}
		}
		parts = append(parts, comp)
	}
	sort.Slice(parts, func(i, j int) bool { return len(parts[i]) > len(parts[j]) })
	return parts
}
