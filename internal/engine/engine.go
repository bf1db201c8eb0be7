// Package engine executes fusion plans. It has two paths:
//
//   - Executor/Session: numeric execution of the compiled kernels (pull
//     model). An Executor is the immutable runtime artifact — kernels
//     compiled once, blocks pre-scheduled — and each Session owns the
//     per-goroutine value environment, so many sessions can serve
//     inference concurrently over one Executor. Run is the convenience
//     one-shot form; both match the reference interpreter bit-for-bit up
//     to float tolerance.
//   - Simulate: analytic execution on a device profile, producing latency,
//     memory-access, cache-miss, utilization and peak-memory reports — the
//     quantities Snapdragon Profiler supplied in the paper's evaluation.
//
// The engine also contains the liveness-based memory planner. It is not
// just a price: PlanArena assigns every materialized value a stable arena
// slot at compile time, each Session executes out of one arena sized to the
// planned peak, and PlanMemory (the Figure 8 memory-consumption quantity)
// is derived from the same plan, so simulated and executed peak memory
// cannot drift apart.
package engine

import (
	"context"
	"fmt"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/tensor"
)

// Options configures simulation.
type Options struct {
	// OtherOpt enables the intra-/inter-block optimizations' effects
	// (§4.4.2): interior data-movement folding and the dominant-operator
	// layout bonus. DNNFusion runs with it on; the Figure 7 breakdown
	// toggles it.
	OtherOpt bool
	// Quality scales kernel efficiency for emulated baseline frameworks
	// (OurB/OurB+/DNNF use 1.0). Zero means 1.0.
	Quality float64
	// Cache, when non-nil, shares generated kernels across models.
	Cache *codegen.Cache
}

// Report aggregates a simulated inference.
type Report struct {
	Device    *device.Device
	LatencyMs float64

	ComputeMs  float64
	MemoryMs   float64
	OverheadMs float64

	Kernels int
	FLOPs   int64

	// Memory accesses (bytes moved to/from DRAM) and peak consumption.
	MemAccessBytes int64
	PeakMemBytes   int64
	WeightBytes    int64
	ActivationPeak int64

	// CacheMisses/TLBMisses are keyed by cache level name.
	CacheMisses map[string]int64
	TLBMisses   map[string]int64

	// UtilizationPct is useful-compute time over total device time.
	UtilizationPct float64
}

// Simulate prices the plan's kernels on the device and plans memory.
func Simulate(e *ecg.ECG, plan *fusion.Plan, dev *device.Device, opts Options) (*Report, error) {
	kernels, err := codegen.CompilePlan(e, plan, opts.Cache)
	if err != nil {
		return nil, err
	}
	order, err := scheduleBlocks(plan, e.G)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Device:      dev,
		Kernels:     len(kernels),
		CacheMisses: map[string]int64{},
		TLBMisses:   map[string]int64{},
	}
	kernelOf := make(map[*fusion.Block]*codegen.Kernel, len(kernels))
	for i, b := range plan.Blocks {
		kernelOf[b] = kernels[i]
	}
	for _, b := range order {
		k := kernelOf[b]
		w := device.Work{
			FLOPs:           k.FLOPs,
			ReadBytes:       k.ReadBytes,
			WriteBytes:      k.WriteBytes,
			Heavy:           k.Heavy(),
			LayoutOptimized: opts.OtherOpt,
			Disruption:      k.Disruption,
			Quality:         opts.Quality,
		}
		if !opts.OtherOpt {
			w.ExtraMovementBytes = k.FoldedMovementBytes()
		} else {
			// The intra-block optimization (Figure 5) converts explicit
			// data movement into index transforms, halving the access
			// disruption fused shuffles cause.
			w.Disruption = (k.Disruption + 1) / 2
		}
		c := dev.Price(w)
		rep.LatencyMs += c.TimeMs
		rep.ComputeMs += c.ComputeMs
		rep.MemoryMs += c.MemoryMs
		rep.OverheadMs += c.OverheadMs
		rep.FLOPs += k.FLOPs
		rep.MemAccessBytes += c.DRAMBytes
		for i, m := range c.CacheMisses {
			rep.CacheMisses[dev.Caches[i].Name] += m
		}
		for i, m := range c.TLBMisses {
			rep.TLBMisses[dev.TLBs[i].Name] += m
		}
	}
	if rep.LatencyMs > 0 {
		rep.UtilizationPct = 100 * rep.ComputeMs / rep.LatencyMs
		if rep.UtilizationPct > 100 {
			rep.UtilizationPct = 100
		}
	}
	rep.WeightBytes = e.G.ParamBytes()
	rep.ActivationPeak = PlanMemory(plan, order, e.G)
	rep.PeakMemBytes = rep.WeightBytes + rep.ActivationPeak
	return rep, nil
}

// scheduleBlocks topologically orders the plan's blocks over the block-level
// dependency DAG.
func scheduleBlocks(plan *fusion.Plan, g *graph.Graph) ([]*fusion.Block, error) {
	deps := map[*fusion.Block]map[*fusion.Block]bool{}
	for _, b := range plan.Blocks {
		deps[b] = map[*fusion.Block]bool{}
		for _, in := range b.Inputs() {
			if in.Producer == nil {
				continue
			}
			p := plan.BlockOf(in.Producer)
			if p != nil && p != b {
				deps[b][p] = true
			}
		}
	}
	var order []*fusion.Block
	done := map[*fusion.Block]bool{}
	for len(order) < len(plan.Blocks) {
		progressed := false
		for _, b := range plan.Blocks {
			if done[b] {
				continue
			}
			ready := true
			for d := range deps[b] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				done[b] = true
				order = append(order, b)
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("engine: block-level cycle in plan")
		}
	}
	return order, nil
}

// Run executes the plan numerically: each block becomes one fused kernel,
// interior values are never materialized. Outputs are returned in graph
// output order.
//
// Run compiles the kernels and schedules the blocks on every call; hot
// paths should build an Executor once and run Sessions over it instead.
func Run(e *ecg.ECG, plan *fusion.Plan, feeds map[*graph.Value]*tensor.Tensor) ([]*tensor.Tensor, error) {
	x, err := NewExecutor(e, plan, nil)
	if err != nil {
		return nil, err
	}
	return x.NewSession().Run(context.Background(), feeds)
}
