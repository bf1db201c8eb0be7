package dnnfusion

import (
	"context"
	"fmt"

	"dnnfusion/internal/core"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/tensor"
)

// Model is a compiled, immutable inference artifact. Compile it once, then
// serve it from any number of goroutines: the hot path is NewRunner — each
// runner owns its per-session execution state, so N runners over one Model
// run inference in parallel with no shared mutable state.
//
// Inputs and outputs are addressed by the names given when the graph was
// built (AddInput names for inputs, the marked value's name for outputs),
// decoupling callers from the compiler's internal graph representation.
//
// Model embeds the internal compiled form, so compiler introspection
// (Kernels, Plan, Stats, Simulate, FusedLayerCount) remains available.
type Model struct {
	*core.Compiled

	inputs  map[string]int // input name -> position in G.Inputs
	outputs []namedValue
}

type namedValue struct {
	name string
	v    *graph.Value
}

// Compile runs the DNNFusion pipeline over g (the input graph is cloned,
// never mutated) and returns a concurrency-safe Model. With no options it
// runs the full pipeline; see Option for ablations and deployment knobs.
//
// Errors wrap ErrInvalidGraph (g failed validation or has colliding input
// names) or ErrCompile (a pipeline stage failed).
func Compile(g *Graph, opts ...Option) (*Model, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrInvalidGraph)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	if _, err := inputsByName(g); err != nil {
		return nil, err
	}
	cfg := core.Defaults()
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := core.Compile(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	// The clone preserves input names, so this cannot fail post-compile.
	byName, err := inputsByName(c.G)
	if err != nil {
		return nil, err
	}
	m := &Model{Compiled: c, inputs: byName}
	// Output names come from the caller's original graph: rewriting may
	// rebuild producer nodes (renaming their values), but it preserves
	// output positions, so position i of the compiled graph is output i of
	// the original.
	for i, name := range outputNamesOf(g) {
		m.outputs = append(m.outputs, namedValue{name: name, v: c.G.Outputs[i]})
	}
	return m, nil
}

// inputsByName indexes a graph's inputs by their declared names, rejecting
// collisions: the named-I/O API needs every input to be addressable.
func inputsByName(g *Graph) (map[string]int, error) {
	byName := make(map[string]int, len(g.Inputs))
	for i, in := range g.Inputs {
		if _, dup := byName[in.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate input name %q", ErrInvalidGraph, in.Name)
		}
		byName[in.Name] = i
	}
	return byName, nil
}

// namesOf lists the values' names in order.
func namesOf(vs []*graph.Value) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

// resolveNamedFeeds validates one request's name-keyed inputs against a
// graph's declared inputs decl (byName indexes them) and writes the
// tensors into dst (cleared first), each keyed by the executed graph's
// input at the same position: exec is decl itself, or the inputs of a
// batch-capacity variant, whose leading axes hold a batch of such requests.
// Runner, BatchRunner and the reference interpreter all validate through
// this one function, so their error behavior cannot drift apart.
func resolveNamedFeeds(inputs map[string]*Tensor, byName map[string]int, decl, exec []*graph.Value, dst map[*graph.Value]*tensor.Tensor) error {
	clear(dst)
	for name, t := range inputs {
		i, ok := byName[name]
		if !ok {
			return fmt.Errorf("%w: %q (model inputs: %v)", ErrUnknownInput, name, namesOf(decl))
		}
		if t == nil {
			return fmt.Errorf("%w: %q fed a nil tensor", ErrMissingInput, name)
		}
		if want := decl[i].Shape; !t.Shape().Equal(want) {
			return &ShapeError{Input: name, Want: want.Clone(), Got: t.Shape()}
		}
		dst[exec[i]] = t
	}
	// Every name fed is a distinct input, so one is missing exactly when
	// fewer were fed than declared.
	if len(dst) < len(decl) {
		for _, in := range decl {
			if _, ok := inputs[in.Name]; !ok {
				return fmt.Errorf("%w: %q", ErrMissingInput, in.Name)
			}
		}
	}
	return nil
}

// outputNamesOf assigns the public name of every graph output: the marked
// value's own name, with positional fallbacks for unnamed or colliding
// entries. Fallbacks never collide with explicit names (or each other), so
// every output keeps a distinct key in the result maps.
func outputNamesOf(g *Graph) []string {
	names := make([]string, len(g.Outputs))
	used := make(map[string]bool, len(g.Outputs))
	// First claim the explicit, first-occurrence names ...
	for i, out := range g.Outputs {
		if out.Name != "" && !used[out.Name] {
			used[out.Name] = true
			names[i] = out.Name
		}
	}
	// ... then fill the unnamed and colliding slots with positional
	// fallbacks that dodge everything already claimed.
	for i, name := range names {
		if name != "" {
			continue
		}
		fallback := fmt.Sprintf("output%d", i)
		for n := 0; used[fallback]; n++ {
			fallback = fmt.Sprintf("output%d_%d", i, n)
		}
		used[fallback] = true
		names[i] = fallback
	}
	return names
}

// Name returns the model (graph) name.
func (m *Model) Name() string { return m.Compiled.G.Name }

// InputNames lists the model's input names in declaration order.
func (m *Model) InputNames() []string { return namesOf(m.Compiled.G.Inputs) }

// OutputNames lists the model's output names in declaration order.
func (m *Model) OutputNames() []string {
	out := make([]string, len(m.outputs))
	for i, nv := range m.outputs {
		out[i] = nv.name
	}
	return out
}

// InputShape returns the declared shape of the named input.
func (m *Model) InputShape(name string) (Shape, error) {
	i, ok := m.inputs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (model inputs: %v)", ErrUnknownInput, name, m.InputNames())
	}
	return m.Compiled.G.Inputs[i].Shape.Clone(), nil
}

// OutputShape returns the shape of the named output, so serving layers can
// publish full I/O specs without running an inference.
func (m *Model) OutputShape(name string) (Shape, error) {
	for _, nv := range m.outputs {
		if nv.name == name {
			return nv.v.Shape.Clone(), nil
		}
	}
	return nil, fmt.Errorf("dnnfusion: unknown output %q (model outputs: %v)", name, m.OutputNames())
}

// PlannedPeakBytes is the activation arena size each Runner (session) pins
// while bound: the peak of the compile-time liveness analysis under buffer
// reuse. Weights are shared across runners and excluded; see Simulate for
// the full memory report.
func (m *Model) PlannedPeakBytes() int64 { return m.Compiled.PlannedPeakBytes() }

// NewRunner creates an independent inference session over the model. The
// Model is shared and read-only; the Runner owns per-session scratch, so
// use one Runner per goroutine (a Runner itself is not safe for concurrent
// use, but any number of Runners run in parallel over one Model).
//
// Creation is cheap; the first Run allocates the runner's planned arena
// (Model.PlannedPeakBytes) and binds the kernels to it, and every Run after
// that performs zero steady-state heap allocations. An idle warmed Runner
// therefore pins its arena — call Release to drop it.
func (m *Model) NewRunner() *Runner { return &Runner{newRunner(m, m, 1)} }

// Runner is a single-goroutine inference session over a shared Model: the
// batched core behind BatchRunner, run as a batch of one.
type Runner struct{ runner }

// Model returns the compiled model this runner serves.
func (r *Runner) Model() *Model { return r.base }

// Run executes one inference. inputs maps input names to tensors; every
// model input must be present with its declared shape. Input data is copied
// into the runner's arena, so the caller may reuse fed tensors immediately.
//
// The result maps output names to tensors served from a double buffer: the
// map and tensors returned by one Run remain valid and unchanged through
// the next Run on this runner, and are reused (overwritten) by the one
// after that. Callers that retain outputs longer must Clone the tensors.
//
// Errors wrap ErrUnknownInput, ErrMissingInput, or ErrShapeMismatch (as a
// *ShapeError); a canceled ctx aborts between fused kernels with an error
// matching ctx.Err().
func (r *Runner) Run(ctx context.Context, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	if err := r.feed(0, inputs); err != nil {
		return nil, err
	}
	res, err := r.run(ctx, 1)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
