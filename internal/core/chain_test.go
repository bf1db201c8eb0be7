package core

import (
	"testing"

	"dnnfusion/internal/device"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/profile"
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
		online bool
	}{
		{"micro-mlp", false},
		{"micro-attention", true},
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
			if fused.Stats.ChainFusions == 0 {
				t.Fatal("no chain fused under Defaults")
			}
			if base.Stats.ChainFusions != 0 {
				t.Fatalf("ChainFusions = %d with the pass disabled", base.Stats.ChainFusions)
			}
			if fused.HasOnlineChain() != m.online {
				t.Errorf("HasOnlineChain = %v, want %v", fused.HasOnlineChain(), m.online)
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

// TestChainScheduleCachedInProfileDB: the joint producer/consumer schedule
// of a chain kernel is a tuner search on first compile and a profile-DB
// hit on the second, under the chain-specific key space.
func TestChainScheduleCachedInProfileDB(t *testing.T) {
	db := profile.New()
	opts := Defaults()
	opts.ProfileDB = db
	first, err := Compile(buildMicro("micro-attention"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ChainFusions == 0 {
		t.Fatal("no chain fused")
	}
	cached := false
	for _, k := range first.Kernels {
		if pm, pn, pk, cm, cn, ck, ok := k.ChainScheduleTasks(); ok {
			key := profile.ChainScheduleKey(device.Snapdragon865CPU().Name, pm, pn, pk, cm, cn, ck)
			if ks, hit := db.LookupSchedule(key); hit && ks.Producer == k.ProducerSchedule {
				cached = true
			}
		}
	}
	if !cached {
		t.Fatal("first compile cached no chain schedule")
	}
	second, err := Compile(buildMicro("micro-attention"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ScheduleMisses != 0 {
		t.Errorf("second compile missed %d schedule lookups — chain key not cached",
			second.Stats.ScheduleMisses)
	}
	// The cached pair must reproduce the searched pair on the chain kernel.
	for i, k := range second.Kernels {
		fk := first.Kernels[i]
		if k.Schedule != fk.Schedule || k.ProducerSchedule != fk.ProducerSchedule {
			t.Errorf("kernel %d schedules differ across cached recompile: %+v/%+v vs %+v/%+v",
				i, k.Schedule, k.ProducerSchedule, fk.Schedule, fk.ProducerSchedule)
		}
	}
}
