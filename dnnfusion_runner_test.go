// Runner tests: the named-I/O serving path — round trips, the typed error
// taxonomy, context cancellation, and concurrent Runners over one shared
// Model (run with -race).
package dnnfusion_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dnnfusion"
)

// buildTwoIOGraph builds a graph with two named inputs and two named
// outputs, so the tests cover multi-tensor round trips in both directions.
func buildTwoIOGraph(t testing.TB) *dnnfusion.Graph {
	t.Helper()
	g := dnnfusion.NewGraph("two-io")
	a := g.AddInput("a", dnnfusion.ShapeOf(4, 8))
	b := g.AddInput("b", dnnfusion.ShapeOf(8, 8))
	w := g.AddWeight("w", dnnfusion.Rand(8, 8))
	h := g.Apply1(dnnfusion.MatMul(), a, b)
	h = g.Apply1(dnnfusion.Relu(), h)
	sum := g.Apply1(dnnfusion.MatMul(), h, w)
	act := g.Apply1(dnnfusion.Sigmoid(), sum)
	g.MarkOutputAs("sum", sum)
	g.MarkOutputAs("act", act)
	return g
}

func TestRunnerNamedRoundTrip(t *testing.T) {
	g := buildTwoIOGraph(t)
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.InputNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("input names = %v, want [a b]", got)
	}
	outNames := model.OutputNames()
	if len(outNames) != 2 || outNames[0] != "sum" || outNames[1] != "act" {
		t.Fatalf("output names = %v, want [sum act]", outNames)
	}
	shape, err := model.InputShape("a")
	if err != nil || !shape.Equal(dnnfusion.ShapeOf(4, 8)) {
		t.Fatalf("InputShape(a) = %v, %v", shape, err)
	}

	inputs := map[string]*dnnfusion.Tensor{
		"a": dnnfusion.Rand(4, 8),
		"b": dnnfusion.Rand(8, 8),
	}
	got, err := model.NewRunner().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dnnfusion.InterpretNamed(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range outNames {
		w, ok := want[name]
		if !ok {
			t.Fatalf("interpreter missing output %q", name)
		}
		gt, ok := got[name]
		if !ok {
			t.Fatalf("runner missing output %q", name)
		}
		for i := range w.Data() {
			d := float64(w.Data()[i] - gt.Data()[i])
			if d < -1e-4 || d > 1e-4 {
				t.Fatalf("output %q diverges at %d: %v vs %v", name, i, gt.Data()[i], w.Data()[i])
			}
		}
	}
}

func TestRunnerErrorTaxonomy(t *testing.T) {
	g := buildTwoIOGraph(t)
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	runner := model.NewRunner()
	ctx := context.Background()
	good := map[string]*dnnfusion.Tensor{
		"a": dnnfusion.Rand(4, 8),
		"b": dnnfusion.Rand(8, 8),
	}

	// Unknown feed name.
	bad := map[string]*dnnfusion.Tensor{"a": good["a"], "b": good["b"], "zz": dnnfusion.Rand(1)}
	if _, err := runner.Run(ctx, bad); !errors.Is(err, dnnfusion.ErrUnknownInput) {
		t.Errorf("unknown input: got %v, want ErrUnknownInput", err)
	}

	// Missing model input.
	if _, err := runner.Run(ctx, map[string]*dnnfusion.Tensor{"a": good["a"]}); !errors.Is(err, dnnfusion.ErrMissingInput) {
		t.Errorf("missing input: got %v, want ErrMissingInput", err)
	}

	// Shape mismatch: both the sentinel and the structured form.
	_, err = runner.Run(ctx, map[string]*dnnfusion.Tensor{"a": dnnfusion.Rand(4, 9), "b": good["b"]})
	if !errors.Is(err, dnnfusion.ErrShapeMismatch) {
		t.Errorf("shape mismatch: got %v, want ErrShapeMismatch", err)
	}
	var se *dnnfusion.ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("shape mismatch not a *ShapeError: %v", err)
	}
	if se.Input != "a" || !se.Want.Equal(dnnfusion.ShapeOf(4, 8)) || !se.Got.Equal(dnnfusion.ShapeOf(4, 9)) {
		t.Errorf("ShapeError fields = %+v", se)
	}

	// Unknown zoo model.
	if _, err := dnnfusion.BuildModel("no-such-net"); !errors.Is(err, dnnfusion.ErrUnknownModel) {
		t.Errorf("unknown model: got %v, want ErrUnknownModel", err)
	}

	// InputShape on an unknown name.
	if _, err := model.InputShape("zz"); !errors.Is(err, dnnfusion.ErrUnknownInput) {
		t.Errorf("InputShape: got %v, want ErrUnknownInput", err)
	}

	// Compile-stage taxonomy: nil and invalid graphs.
	if _, err := dnnfusion.Compile(nil); !errors.Is(err, dnnfusion.ErrInvalidGraph) {
		t.Errorf("nil graph: got %v, want ErrInvalidGraph", err)
	}
	dup := dnnfusion.NewGraph("dup-inputs")
	x1 := dup.AddInput("x", dnnfusion.ShapeOf(2, 2))
	dup.AddInput("x", dnnfusion.ShapeOf(2, 2))
	dup.MarkOutput(dup.Apply1(dnnfusion.Relu(), x1))
	if _, err := dnnfusion.Compile(dup); !errors.Is(err, dnnfusion.ErrInvalidGraph) {
		t.Errorf("duplicate input names: got %v, want ErrInvalidGraph", err)
	}

	// The runner still works after every error above.
	if _, err := runner.Run(ctx, good); err != nil {
		t.Fatalf("runner poisoned by earlier errors: %v", err)
	}
}

// TestOutputNameCollisions pins the fallback naming: an explicit name that
// shadows a positional fallback must not make two outputs share a key, and
// MarkOutputAs on an input must not destroy the input's feed name.
func TestOutputNameCollisions(t *testing.T) {
	g := dnnfusion.NewGraph("collide")
	x := g.AddInput("x", dnnfusion.ShapeOf(2, 2))
	a := g.Apply1(dnnfusion.Relu(), x)
	b := g.Apply1(dnnfusion.Sigmoid(), x)
	g.MarkOutputAs("output1", a) // explicit name equals index 1's fallback
	g.MarkOutput(b)              // unnamed, lands at index 1
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	names := model.OutputNames()
	if len(names) != 2 || names[0] != "output1" || names[1] == "output1" {
		t.Fatalf("output names = %v, want [output1 <distinct>]", names)
	}
	got, err := model.NewRunner().Run(context.Background(),
		map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("run returned %d outputs, want 2 (one was silently dropped)", len(got))
	}

	// MarkOutputAs on an input keeps the input addressable by its name.
	pass := dnnfusion.NewGraph("passthrough")
	in := pass.AddInput("x", dnnfusion.ShapeOf(2, 2))
	pass.MarkOutputAs("y", in)
	pm, err := dnnfusion.Compile(pass)
	if err != nil {
		t.Fatal(err)
	}
	if names := pm.InputNames(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("input names = %v, want [x] after MarkOutputAs on the input", names)
	}
}

// TestRunnerNoOutputs: a graph that marks no output compiles, and both
// runners return one empty output map per request, run after run.
func TestRunnerNoOutputs(t *testing.T) {
	g := dnnfusion.NewGraph("no-outputs")
	g.Apply1(dnnfusion.Relu(), g.AddInput("x", dnnfusion.ShapeOf(2, 2)))
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := model.CompileBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(2, 2)}
	runner, br := model.NewRunner(), bm.NewRunner()
	for i := 0; i < 3; i++ {
		if got, err := runner.Run(context.Background(), req); err != nil || len(got) != 0 {
			t.Fatalf("Run %d = %v, %v; want an empty map", i, got, err)
		}
		got, err := br.RunBatch(context.Background(), []map[string]*dnnfusion.Tensor{req, req})
		if err != nil || len(got) != 2 || len(got[0])+len(got[1]) != 0 {
			t.Fatalf("RunBatch %d = %v, %v; want two empty maps", i, got, err)
		}
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	g := buildPublicMLP(t)
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = model.NewRunner().Run(ctx, map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(4, 16)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run: got %v, want context.Canceled", err)
	}
}

// TestConcurrentRunners is the acceptance gate for the serving API: eight
// goroutines each own a Runner over one shared Model, run distinct inputs
// repeatedly, and every output must match the reference interpreter to
// 1e-4. Run under -race this also proves the compiled artifact is free of
// shared mutable per-run state.
func TestConcurrentRunners(t *testing.T) {
	g := buildTwoIOGraph(t)
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iterations = 10

	// Distinct per-goroutine inputs with interpreter ground truth,
	// computed up front so the parallel phase only exercises Runners.
	type testCase struct {
		inputs map[string]*dnnfusion.Tensor
		want   map[string]*dnnfusion.Tensor
	}
	cases := make([]testCase, goroutines)
	for i := range cases {
		a := dnnfusion.Rand(4, 8)
		b := dnnfusion.Rand(8, 8)
		// Perturb per goroutine so every worker computes different data.
		for j := range a.Data() {
			a.Data()[j] += float32(i) * 0.1
		}
		inputs := map[string]*dnnfusion.Tensor{"a": a, "b": b}
		want, err := dnnfusion.InterpretNamed(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = testCase{inputs: inputs, want: want}
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runner := model.NewRunner()
			tc := cases[id]
			for iter := 0; iter < iterations; iter++ {
				got, err := runner.Run(context.Background(), tc.inputs)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", id, iter, err)
					return
				}
				for name, want := range tc.want {
					out := got[name]
					if out == nil {
						errc <- fmt.Errorf("goroutine %d: missing output %q", id, name)
						return
					}
					for j := range want.Data() {
						d := float64(want.Data()[j] - out.Data()[j])
						if d < -1e-4 || d > 1e-4 {
							errc <- fmt.Errorf("goroutine %d iter %d: output %q diverges at %d", id, iter, name, j)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
