package fusion

import (
	"fmt"
	"sort"
	"strings"

	"dnnfusion/internal/ecg"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
)

// SeedPolicy selects fusion seed operators (§4.3 Step I). The paper's
// policy is MinIRS; the others exist for the ablation benchmarks.
type SeedPolicy int

const (
	// SeedMinIRS picks the One-to-One operator with the smallest
	// intermediate result first (the paper's heuristic).
	SeedMinIRS SeedPolicy = iota
	// SeedMaxIRS picks the largest intermediate result first (ablation).
	SeedMaxIRS
	// SeedNone disables seeding: every unfused op is visited in topo
	// order (ablation; approximates pattern-free greedy fusion).
	SeedNone
)

// LatencyFunc estimates the latency (in milliseconds) of executing the given
// nodes as a single fused kernel. The fusion planner calls it for yellow
// (fuse_depend) decisions; internal/core wires it to the device cost model
// through the profiling database.
type LatencyFunc func(nodes []*graph.Node) float64

// Options tunes plan generation.
type Options struct {
	// MaxBlockOps bounds operators per block (constraint analysis,
	// Listing 1 step 2.2). Zero means the default of 40.
	MaxBlockOps int
	// MaxBlockInputs bounds distinct exterior inputs per block, a proxy
	// for register pressure. Zero means the default of 24.
	MaxBlockInputs int
	// Latency resolves yellow decisions; nil accepts them optimistically.
	Latency LatencyFunc
	// Seeds selects the seed policy.
	Seeds SeedPolicy
}

func (o Options) withDefaults() Options {
	if o.MaxBlockOps == 0 {
		o.MaxBlockOps = 40
	}
	if o.MaxBlockInputs == 0 {
		o.MaxBlockInputs = 24
	}
	return o
}

// Block is a candidate fusion block: a connected set of operators compiled
// into one kernel.
type Block struct {
	ID    int
	Seed  *graph.Node
	Nodes []*graph.Node
	// Mapping is the fused operator's mapping type, evolved via Combine.
	Mapping ops.MappingType
	// Chain is set when the block was formed by contraction-chain fusion
	// (FuseChains): two ManyToMany contractions sharing one block, a
	// deliberate exception to Table 3 executed by the streaming chain
	// kernel instead of pairwise loop fusion.
	Chain   *Chain
	nodeSet map[*graph.Node]bool
}

// Contains reports whether n belongs to the block.
func (b *Block) Contains(n *graph.Node) bool { return b.nodeSet[n] }

// Size returns the number of fused operators.
func (b *Block) Size() int { return len(b.Nodes) }

// Inputs returns the distinct exterior input values of the block
// (runtime inputs, weights, and other blocks' outputs).
func (b *Block) Inputs() []*graph.Value { return exteriorInputs(b.Contains, b.Nodes) }

// exteriorInputs lists, in first-read order, the distinct values the node
// set in (listed by parts) reads from outside itself.
func exteriorInputs(in func(*graph.Node) bool, parts ...[]*graph.Node) []*graph.Value {
	var out []*graph.Value
	seen := map[*graph.Value]bool{}
	for _, nodes := range parts {
		for _, n := range nodes {
			for _, v := range n.Inputs {
				if (v.Producer == nil || !in(v.Producer)) && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// Outputs returns the block's values that must be materialized: values
// consumed outside the block or that are graph outputs.
func (b *Block) Outputs() []*graph.Value {
	var out []*graph.Value
	for _, n := range b.Nodes {
		for _, v := range n.Outputs {
			if b.Escapes(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// Escapes reports whether v, produced inside the block, is read outside
// it: by a consumer in another block or as a graph output.
func (b *Block) Escapes(v *graph.Value) bool {
	if v.Kind == graph.Output {
		return true
	}
	for _, c := range v.Consumers {
		if !b.nodeSet[c] {
			return true
		}
	}
	return false
}

func (b *Block) String() string {
	names := make([]string, len(b.Nodes))
	for i, n := range b.Nodes {
		names[i] = n.Op.Type()
	}
	return fmt.Sprintf("block#%d{%s}", b.ID, strings.Join(names, "+"))
}

// Plan is a complete fusion plan: a partition of the graph's nodes into
// blocks, plus planning statistics.
type Plan struct {
	// Blocks is ordered by each block's earliest node in topological
	// order, and Block.ID is the index here.
	Blocks  []*Block
	blockOf map[*graph.Node]*Block
	// order is G.TopoSort() and pos each node's index in it, computed once
	// per plan: block ordering and chain fusion read them.
	order []*graph.Node
	pos   map[*graph.Node]int

	// ProfileQueries counts yellow decisions resolved via Latency.
	ProfileQueries int
	// GreenFusions and YellowFusions count accepted fusions by decision.
	GreenFusions  int
	YellowFusions int
	// BrokenByTable, BrokenByConstraint, BrokenByCycle, BrokenByProfile
	// count rejected fusion attempts by cause.
	BrokenByTable      int
	BrokenByConstraint int
	BrokenByCycle      int
	BrokenByProfile    int
	// ChainFusions counts the plan's chain blocks.
	ChainFusions int
}

func newPlan(e *ecg.ECG) *Plan {
	order := e.G.TopoSort()
	pos := make(map[*graph.Node]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	return &Plan{blockOf: make(map[*graph.Node]*Block, len(order)), order: order, pos: pos}
}

// BlockOf returns the block containing n.
func (p *Plan) BlockOf(n *graph.Node) *Block { return p.blockOf[n] }

// FusedLayerCount is the number of kernels after fusion (Table 5's "layer
// count after opt").
func (p *Plan) FusedLayerCount() int { return len(p.Blocks) }

// IRSBytesAfter totals the bytes of values still materialized under the
// plan (Table 5's "IRS size after opt").
func (p *Plan) IRSBytesAfter() int64 {
	var total int64
	for _, b := range p.Blocks {
		for _, v := range b.Outputs() {
			total += v.Shape.Bytes()
		}
	}
	return total
}

// MarkRemovable sets IR_removable in the ECG for every value whose
// consumers are all fused with its producer (paper §3.2).
func (p *Plan) MarkRemovable(e *ecg.ECG) int {
	removed := 0
	for _, b := range p.Blocks {
		for _, n := range b.Nodes {
			for _, v := range n.Outputs {
				if info, ok := e.Value[v]; ok && !b.Escapes(v) {
					info.IRRemovable = true
					removed++
				}
			}
		}
	}
	return removed
}

// planner carries the in-progress state of Listing 1.
type planner struct {
	e       *ecg.ECG
	opts    Options
	plan    *Plan
	unfused map[*graph.Node]bool
}

// GeneratePlan runs the fusion plan exploration algorithm (Listing 1) over
// the annotated graph.
func GeneratePlan(e *ecg.ECG, opts Options) *Plan {
	p := &planner{
		e:       e,
		opts:    opts.withDefaults(),
		plan:    newPlan(e),
		unfused: make(map[*graph.Node]bool, len(e.G.Nodes)),
	}
	order := p.plan.order
	for _, n := range order {
		p.unfused[n] = true
	}

	// Step 1: iterate seeds until exhausted.
	for {
		seed := p.generateSeed(order)
		if seed == nil {
			break
		}
		block := p.newBlock(seed)
		// Step 2: propagate along successors.
		for _, succ := range successors(seed) {
			p.grow(block, succ, true)
		}
		// Step 3: propagate along predecessors.
		for _, pred := range predecessors(seed) {
			p.grow(block, pred, false)
		}
	}

	// Remaining operators become singleton blocks in topo order.
	for _, n := range order {
		if p.unfused[n] {
			p.newBlock(n)
		}
	}
	// Blocks were created seed-first; order them topologically.
	p.plan.sortBlocksTopo()
	return p.plan
}

// generateSeed implements Listing 1 lines 1-5 for the configured policy.
func (p *planner) generateSeed(order []*graph.Node) *graph.Node {
	var best *graph.Node
	var bestBytes int64
	for _, n := range order {
		if !p.unfused[n] {
			continue
		}
		if p.opts.Seeds == SeedNone {
			return n
		}
		if p.e.Mapping(n) != ops.OneToOne {
			continue
		}
		var bytes int64
		for _, out := range n.Outputs {
			bytes += out.Shape.Bytes()
		}
		if best == nil ||
			(p.opts.Seeds == SeedMinIRS && bytes < bestBytes) ||
			(p.opts.Seeds == SeedMaxIRS && bytes > bestBytes) {
			best = n
			bestBytes = bytes
		}
	}
	if best == nil && p.opts.Seeds != SeedNone {
		// No One-to-One ops left; fall back to any unfused op so every
		// node still gets explored (deep models always have seeds).
		for _, n := range order {
			if p.unfused[n] {
				return n
			}
		}
	}
	return best
}

func (p *planner) newBlock(seed *graph.Node) *Block {
	b := &Block{
		Seed:    seed,
		Nodes:   []*graph.Node{seed},
		Mapping: p.e.Mapping(seed),
		nodeSet: map[*graph.Node]bool{seed: true},
	}
	p.plan.Blocks = append(p.plan.Blocks, b)
	p.plan.blockOf[seed] = b
	delete(p.unfused, seed)
	return b
}

func (p *planner) admit(b *Block, n *graph.Node, newMapping ops.MappingType, d Decision) {
	b.Nodes = append(b.Nodes, n)
	b.nodeSet[n] = true
	b.Mapping = newMapping
	p.plan.blockOf[n] = b
	delete(p.unfused, n)
	if d == FuseThrough {
		p.plan.GreenFusions++
	} else {
		p.plan.YellowFusions++
	}
}

// grow implements Listing 1 lines 7-24 along successors (forward) and
// their mirror along predecessors (lines 27-28), where the combination
// order is reversed.
func (p *planner) grow(b *Block, n *graph.Node, forward bool) {
	if !p.unfused[n] || b.Contains(n) {
		return
	}
	// Step 2.1: mapping type analysis against the block's evolved type.
	first, second, next := b.Mapping, p.e.Mapping(n), successors
	if !forward {
		first, second, next = second, first, predecessors
	}
	newMapping, d := Combine(first, second)
	if d == FuseBreak {
		p.plan.BrokenByTable++
		return
	}
	in := func(m *graph.Node) bool { return m == n || b.nodeSet[m] }
	candidate := []*graph.Node{n}
	// Step 2.2: constraint analysis (register pressure / block size).
	if !withinLimits(p.opts, in, candidate, b.Nodes) {
		p.plan.BrokenByConstraint++
		return
	}
	if p.plan.cyclic(in, candidate, b.Nodes) {
		p.plan.BrokenByCycle++
		return
	}
	// Step 2.3: profile-based selection for yellow decisions.
	if d == FuseDepend && !p.profitable(b, n) {
		p.plan.BrokenByProfile++
		return
	}
	p.admit(b, n, newMapping, d)
	// Step 2.4: recurse to the node's own successors (predecessors).
	for _, m := range next(n) {
		p.grow(b, m, forward)
	}
}

// withinLimits is Listing 1 step 2.2 for a would-be block — the node set
// in, listed by parts: reject it when it would exceed the block-size or
// the distinct-exterior-input (register pressure) threshold.
func withinLimits(opts Options, in func(*graph.Node) bool, parts ...[]*graph.Node) bool {
	size := 0
	for _, nodes := range parts {
		size += len(nodes)
	}
	return size <= opts.MaxBlockOps && len(exteriorInputs(in, parts...)) <= opts.MaxBlockInputs
}

// profitable is Listing 1 step 2.3: fuse only if the fused kernel is
// predicted no slower than running the block and the candidate separately.
func (p *planner) profitable(b *Block, candidate *graph.Node) bool {
	if p.opts.Latency == nil {
		return true
	}
	p.plan.ProfileQueries++
	fused := append(append([]*graph.Node(nil), b.Nodes...), candidate)
	tFused := p.opts.Latency(fused)
	tSplit := p.opts.Latency(b.Nodes) + p.opts.Latency([]*graph.Node{candidate})
	return tFused <= tSplit
}

// cyclic reports whether executing the node set in (listed by parts) as
// one kernel would create a dependency cycle at kernel granularity: a path
// set → … → set that leaves the set. Exterior traversal must treat
// already-committed blocks as atomic supernodes — entering any member of a
// committed block reaches the whole block, because it executes as one
// kernel. (Without the expansion, two blocks can be individually convex at
// the node level yet cyclic at the block level; found by the randomized
// integration tests.)
func (p *Plan) cyclic(in func(*graph.Node) bool, parts ...[]*graph.Node) bool {
	var stack []*graph.Node
	visited := map[*graph.Node]bool{}
	push := func(n *graph.Node) {
		if visited[n] || in(n) {
			return
		}
		visited[n] = true
		stack = append(stack, n)
		// Atomic-block expansion: reaching one member of a committed
		// block reaches all of it.
		if other := p.blockOf[n]; other != nil {
			for _, sib := range other.Nodes {
				if !visited[sib] && !in(sib) {
					visited[sib] = true
					stack = append(stack, sib)
				}
			}
		}
	}
	for _, nodes := range parts {
		for _, n := range nodes {
			for _, out := range n.Outputs {
				for _, c := range out.Consumers {
					push(c)
				}
			}
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, out := range n.Outputs {
			for _, c := range out.Consumers {
				if in(c) {
					return true
				}
				push(c)
			}
		}
	}
	return false
}

func successors(n *graph.Node) []*graph.Node {
	var out []*graph.Node
	seen := map[*graph.Node]bool{}
	for _, v := range n.Outputs {
		for _, c := range v.Consumers {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func predecessors(n *graph.Node) []*graph.Node {
	var out []*graph.Node
	seen := map[*graph.Node]bool{}
	for _, v := range n.Inputs {
		if v.Producer != nil && !seen[v.Producer] {
			seen[v.Producer] = true
			out = append(out, v.Producer)
		}
	}
	return out
}

// sortBlocksTopo orders blocks by the topological position of their
// earliest node, which is a valid block-level schedule because blocks are
// convex (cycle checks guarantee it), and numbers them in that order.
func (p *Plan) sortBlocksTopo() {
	sort.SliceStable(p.Blocks, func(i, j int) bool {
		return p.minPos(p.Blocks[i]) < p.minPos(p.Blocks[j])
	})
	for i, b := range p.Blocks {
		b.ID = i
	}
}

func (p *Plan) minPos(b *Block) int {
	m := len(p.order)
	for _, n := range b.Nodes {
		if p.pos[n] < m {
			m = p.pos[n]
		}
	}
	return m
}
