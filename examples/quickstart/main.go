// Quickstart: build a small MLP, compile it once into a Model, serve it
// through named-I/O Runners (including several in parallel), check the
// fused execution against the reference interpreter, and inspect the fusion
// plan, the generated kernel source, and the simulated mobile latency.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"dnnfusion"
)

func main() {
	// 1. Build a graph: MatMul -> Add(bias) -> Relu -> MatMul -> Softmax.
	g := dnnfusion.NewGraph("quickstart-mlp")
	x := g.AddInput("x", dnnfusion.ShapeOf(8, 32))
	w1 := g.AddWeight("w1", dnnfusion.Rand(32, 64))
	b1 := g.AddWeight("b1", dnnfusion.Rand(64))
	h := g.Apply1(dnnfusion.MatMul(), x, w1)
	h = g.Apply1(dnnfusion.Add(), h, b1)
	h = g.Apply1(dnnfusion.Relu(), h)
	w2 := g.AddWeight("w2", dnnfusion.Rand(64, 10))
	out := g.Apply1(dnnfusion.MatMul(), h, w2)
	out = g.Apply1(dnnfusion.Softmax(-1), out)
	g.MarkOutputAs("probs", out)

	// 2. Compile once with the full pipeline. The Model is immutable and
	// safe to share across goroutines.
	model, err := dnnfusion.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %q: inputs %v -> outputs %v\n", model.Name(), model.InputNames(), model.OutputNames())
	fmt.Printf("operators: %d  ->  fused kernels: %d\n", len(g.Nodes), model.FusedLayerCount())
	for _, k := range model.Kernels {
		fmt.Printf("  kernel %s: %d ops, %d FLOPs, layout %s\n", k.Name, k.OpCount, k.FLOPs, k.Layout)
	}

	// 3. Serve it: one Runner per goroutine, inputs and outputs by name.
	ctx := context.Background()
	input := dnnfusion.Rand(8, 32)
	outName := model.OutputNames()[0]

	runner := model.NewRunner()
	got, err := runner.Run(ctx, map[string]*dnnfusion.Tensor{"x": input})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Verify against the unfused reference interpreter.
	want, err := dnnfusion.InterpretNamed(g, map[string]*dnnfusion.Tensor{"x": input})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fused output[0][0..3]     = %.4f %.4f %.4f\n",
		got[outName].At(0, 0), got[outName].At(0, 1), got[outName].At(0, 2))
	fmt.Printf("reference output[0][0..3] = %.4f %.4f %.4f\n",
		want[outName].At(0, 0), want[outName].At(0, 1), want[outName].At(0, 2))

	// 5. Parallel serving: four goroutines, each with its own Runner over
	// the one shared Model.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := model.NewRunner()
			if _, err := r.Run(ctx, map[string]*dnnfusion.Tensor{"x": input}); err != nil {
				log.Printf("runner %d: %v", id, err)
			}
		}(i)
	}
	wg.Wait()
	fmt.Println("4 concurrent runners served over one compiled model")

	// 6. Show the generated source of the biggest fused kernel.
	var biggest int
	for i, k := range model.Kernels {
		if k.OpCount > model.Kernels[biggest].OpCount {
			biggest = i
		}
	}
	fmt.Println("\ngenerated CPU kernel for the largest block:")
	fmt.Println(model.Kernels[biggest].Source(dnnfusion.BackendCPU))

	// 7. Simulate one inference on the phone.
	for _, dev := range []*dnnfusion.Device{dnnfusion.SnapdragonCPU(), dnnfusion.SnapdragonGPU()} {
		rep, err := model.Simulate(dev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %.3f ms (%d kernels, %.0f KB moved, util %.0f%%)\n",
			dev, rep.LatencyMs, rep.Kernels, float64(rep.MemAccessBytes)/1024, rep.UtilizationPct)
	}
}
