package core

import (
	"testing"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
)

func buildMicro(name string) *graph.Graph {
	if name == "micro-mlp" {
		return models.MicroMLP()
	}
	return models.MicroAttention()
}

// TestChainFusionShrinksPlannedPeak pins the tentpole memory claim end to
// end: compiling with chain fusion merges the contraction chain of each
// micro model into one streaming kernel, and the M×N intermediate dropping
// out of the arena strictly shrinks PlannedPeakBytes.
func TestChainFusionShrinksPlannedPeak(t *testing.T) {
	for _, m := range []struct {
		name   string
		chains int
	}{
		{"micro-mlp", 1},
		{"micro-attention", 1},
	} {
		t.Run(m.name, func(t *testing.T) {
			off := Defaults()
			off.ChainFusion = false
			base, err := Compile(buildMicro(m.name), off)
			if err != nil {
				t.Fatal(err)
			}
			fused, err := Compile(buildMicro(m.name), Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if fused.Stats.ChainFusions != m.chains {
				t.Fatalf("ChainFusions = %d under Defaults, want %d", fused.Stats.ChainFusions, m.chains)
			}
			if base.Stats.ChainFusions != 0 {
				t.Fatalf("ChainFusions = %d with the pass disabled", base.Stats.ChainFusions)
			}
			if fp, bp := fused.PlannedPeakBytes(), base.PlannedPeakBytes(); fp >= bp {
				t.Errorf("fused peak %d bytes, unfused %d — intermediate not eliminated", fp, bp)
			}
			if fk, bk := len(fused.Kernels), len(base.Kernels); fk >= bk {
				t.Errorf("fused kernel count %d, unfused %d — chain did not merge kernels", fk, bk)
			}
		})
	}
}

// TestChainScheduleDeterministic: a chain kernel gets a joint producer/
// consumer schedule, and compiling the model again assigns the same pair.
func TestChainScheduleDeterministic(t *testing.T) {
	first, err := Compile(buildMicro("micro-attention"), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ChainFusions == 0 {
		t.Fatal("no chain fused")
	}
	scheduled := false
	for _, k := range first.Kernels {
		if _, _, _, _, _, _, ok := k.ChainScheduleTasks(); ok && !k.ProducerSchedule.Zero() && !k.Schedule.Zero() {
			scheduled = true
		}
	}
	if !scheduled {
		t.Fatal("first compile gave no chain kernel a schedule pair")
	}
	second, err := Compile(buildMicro("micro-attention"), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range second.Kernels {
		fk := first.Kernels[i]
		if k.Schedule != fk.Schedule || k.ProducerSchedule != fk.ProducerSchedule {
			t.Errorf("kernel %d schedules differ across recompiles: %+v/%+v vs %+v/%+v",
				i, k.Schedule, k.ProducerSchedule, fk.Schedule, fk.ProducerSchedule)
		}
	}
}
