// Measured-tuning determinism suite over the public API: a warm profile
// database must eliminate measurement entirely (zero measured runs, a
// tuned-plan hit, no schedule misses), structurally identical graphs must
// share one tuned plan via the graph fingerprint, and a weight-shape
// change must miss. The measurement clock is stubbed so the suite is
// deterministic on any machine.
package dnnfusion_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/autotune"
	"dnnfusion/internal/core"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tuner"
)

func compileTuned(t *testing.T, g *dnnfusion.Graph, db *dnnfusion.ProfileDB) *dnnfusion.Model {
	t.Helper()
	m, err := dnnfusion.Compile(g,
		dnnfusion.WithMeasuredTuning(6),
		dnnfusion.WithProfileDB(db),
		dnnfusion.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeasuredTuningWarmStart(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	db := dnnfusion.NewProfileDB()

	cold := compileTuned(t, models.MicroMLP(), db)
	if cold.Stats.MeasuredRuns < 1 {
		t.Errorf("cold compile measured %d runs, want >= 1", cold.Stats.MeasuredRuns)
	}
	if cold.Stats.TunedPlanMisses != 1 || cold.Stats.TunedPlanHits != 0 {
		t.Errorf("cold compile plan hits/misses = %d/%d, want 0/1",
			cold.Stats.TunedPlanHits, cold.Stats.TunedPlanMisses)
	}
	if cold.Fingerprint == "" {
		t.Error("cold compile did not record the graph fingerprint")
	}
	if db.PlanLen() != 1 {
		t.Fatalf("database holds %d tuned plans after the cold compile, want 1", db.PlanLen())
	}

	// A fresh build of the same architecture (different graph object,
	// different weight values) warm-starts from the persisted plan with
	// zero measurement — the CI autotune gate's contract.
	warm := compileTuned(t, models.MicroMLP(), db)
	if warm.Stats.MeasuredRuns != 0 {
		t.Errorf("warm compile measured %d runs, want 0", warm.Stats.MeasuredRuns)
	}
	if warm.Stats.TunedPlanHits != 1 || warm.Stats.TunedPlanMisses != 0 {
		t.Errorf("warm compile plan hits/misses = %d/%d, want 1/0",
			warm.Stats.TunedPlanHits, warm.Stats.TunedPlanMisses)
	}
	if warm.Stats.ScheduleMisses != 0 {
		t.Errorf("warm compile reports %d schedule misses, want 0", warm.Stats.ScheduleMisses)
	}
	if warm.Stats.ScheduleLookups == 0 {
		t.Error("warm compile reports no schedule lookups; the plan replay went unrecorded")
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("structurally identical graphs fingerprint differently: %s vs %s",
			warm.Fingerprint, cold.Fingerprint)
	}

	// Same plan, same schedules → bit-identical execution.
	in := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(16, 64)}
	a, err := cold.NewRunner().Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.NewRunner().Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range a {
		ad, bd := at.Data(), b[name].Data()
		for i := range ad {
			if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
				t.Fatalf("output %q[%d]: cold %g != warm %g", name, i, ad[i], bd[i])
			}
		}
	}
}

func TestMeasuredTuningFingerprintShapeMiss(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	db := dnnfusion.NewProfileDB()

	mlp := func(hidden int) *dnnfusion.Graph {
		g := dnnfusion.NewGraph("shape-probe")
		x := g.AddInput("x", dnnfusion.ShapeOf(1, 32))
		w := g.AddWeight("w", dnnfusion.Rand(32, hidden))
		g.MarkOutputAs("y", g.Apply1(dnnfusion.Relu(), g.Apply1(dnnfusion.MatMul(), x, w)))
		return g
	}

	narrow := compileTuned(t, mlp(16), db)
	wide := compileTuned(t, mlp(64), db)
	if narrow.Fingerprint == wide.Fingerprint {
		t.Error("changing a weight shape did not change the fingerprint")
	}
	if wide.Stats.TunedPlanHits != 0 || wide.Stats.TunedPlanMisses != 1 {
		t.Errorf("shape change hit the other shape's tuned plan: hits/misses = %d/%d",
			wide.Stats.TunedPlanHits, wide.Stats.TunedPlanMisses)
	}
	if db.PlanLen() != 2 {
		t.Errorf("database holds %d tuned plans, want one per shape (2)", db.PlanLen())
	}
}

func TestMeasuredTuningOffByDefault(t *testing.T) {
	m, err := dnnfusion.Compile(models.MicroMLP(), dnnfusion.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.MeasuredRuns != 0 || m.Stats.TunedPlanHits != 0 || m.Stats.TunedPlanMisses != 0 {
		t.Errorf("analytical compile touched the measured path: %+v", m.Stats)
	}
	if m.Fingerprint != "" {
		t.Errorf("analytical compile fingerprinted the graph: %q", m.Fingerprint)
	}
}

// onlyPlanKey saves db and reads the key of its single tuned plan back from
// the file, so tests address the entry without restating the key format.
func onlyPlanKey(t *testing.T, db *dnnfusion.ProfileDB, path string) string {
	t.Helper()
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Plans map[string]json.RawMessage `json:"plans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Plans) != 1 {
		t.Fatalf("database file holds %d tuned plans, want 1", len(file.Plans))
	}
	for key := range file.Plans {
		return key
	}
	panic("unreachable")
}

// TestMeasuredTuningDamagedRecordFallsBack: a tuned plan arrives from a
// file, so each way of damaging it must be refused by the replay with an
// error, and a compile over that database must fall back to a fresh
// search — still bit-exact against the interpreter (micro-mlp has no
// softmax) — that overwrites the bad entry.
func TestMeasuredTuningDamagedRecordFallsBack(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	db := dnnfusion.NewProfileDB()
	cold := compileTuned(t, models.MicroMLP(), db)
	path := filepath.Join(t.TempDir(), "tuned.json")
	key := onlyPlanKey(t, db, path)
	good, _ := db.LookupPlan(key)
	acfg := autotune.Config{ChainFusion: true, Threads: 1}
	if _, _, err := autotune.Rebuild(cold.E, acfg, good); err != nil {
		t.Fatalf("the stored winner does not replay: %v", err)
	}

	// A partition whose blocks depend on each other: the ends of a path
	// n → s → t share a block that s is not in.
	order := cold.G.TopoSort()
	pos := map[*graph.Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	var cyclic []int
	for _, n := range order {
		for _, s := range n.Outputs[0].Consumers {
			for _, end := range s.Outputs[0].Consumers {
				if cyclic == nil && !slices.Contains(n.Outputs[0].Consumers, end) {
					for i := range order {
						cyclic = append(cyclic, i)
					}
					for i := pos[end]; i < len(order); i++ {
						cyclic[i]--
					}
					cyclic[pos[end]] = pos[n]
				}
			}
		}
	}
	if cyclic == nil {
		t.Fatal("micro-mlp has no three-operator path to build a cyclic partition from")
	}

	in := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(16, 64)}
	want, err := dnnfusion.InterpretNamed(models.MicroMLP(), in)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		damage func(tp *profile.TunedPlan)
	}{
		{"partition too short", func(tp *profile.TunedPlan) { tp.Partition = tp.Partition[:len(tp.Partition)-1] }},
		{"negative block", func(tp *profile.TunedPlan) { tp.Partition[len(tp.Partition)-1] = -1 }},
		{"numbering not in first-use order", func(tp *profile.TunedPlan) { tp.Partition[0] = 1 }},
		{"one schedule missing", func(tp *profile.TunedPlan) { tp.Schedules = tp.Schedules[:len(tp.Schedules)-1] }},
		{"blocks depend on each other", func(tp *profile.TunedPlan) {
			tp.Partition = cyclic
			tp.Schedules = make([]profile.KernelSchedule, len(order)-1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			bad.Partition = slices.Clone(good.Partition)
			tc.damage(&bad)
			db.InsertPlan(key, bad)
			if err := db.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := dnnfusion.LoadProfileDB(path)
			if err != nil {
				t.Fatal(err)
			}
			stored, _ := loaded.LookupPlan(key)
			if _, _, err := autotune.Rebuild(cold.E, acfg, stored); err == nil {
				t.Fatal("Rebuild accepted the damaged record")
			}
			m := compileTuned(t, models.MicroMLP(), loaded)
			if m.Stats.TunedPlanHits != 0 || m.Stats.TunedPlanMisses != 1 || m.Stats.MeasuredRuns < 1 {
				t.Errorf("compile over the damaged record: hits/misses/runs = %d/%d/%d, want a fresh search",
					m.Stats.TunedPlanHits, m.Stats.TunedPlanMisses, m.Stats.MeasuredRuns)
			}
			got, err := m.NewRunner().Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			for name, wt := range want {
				wd, gd := wt.Data(), got[name].Data()
				for i := range wd {
					if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
						t.Fatalf("output %q[%d]: %g != interpreter %g", name, i, gd[i], wd[i])
					}
				}
			}
			repaired, _ := loaded.LookupPlan(key)
			if _, _, err := autotune.Rebuild(cold.E, acfg, repaired); err != nil {
				t.Errorf("the fresh search did not overwrite the damaged record: %v", err)
			}
		})
	}
}

// TestMeasuredTuningKeepsCallerPlannerConfig: a stored plan is replayed
// without planning, so it must only be found under the planner
// configuration whose search produced it — a compile that turns chain
// fusion off, or plans under another seed policy, gets its own search and
// its own entry, never the stored winner.
func TestMeasuredTuningKeepsCallerPlannerConfig(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	db := dnnfusion.NewProfileDB()
	tuned := func(g *dnnfusion.Graph, extra ...dnnfusion.Option) *dnnfusion.Model {
		t.Helper()
		opts := append([]dnnfusion.Option{dnnfusion.WithMeasuredTuning(6), dnnfusion.WithProfileDB(db), dnnfusion.WithThreads(1)}, extra...)
		m, err := dnnfusion.Compile(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	missed := func(name string, m *dnnfusion.Model) {
		t.Helper()
		if m.Stats.TunedPlanHits != 0 || m.Stats.TunedPlanMisses != 1 {
			t.Errorf("%s hits/misses = %d/%d, want a miss under its own key", name, m.Stats.TunedPlanHits, m.Stats.TunedPlanMisses)
		}
	}

	first := tuned(models.MicroAttention())
	if first.Stats.ChainFusions == 0 {
		t.Fatal("micro-attention tuned without a chain kernel; the test needs the stored winner to have one")
	}
	noChain := tuned(models.MicroAttention(), dnnfusion.WithoutChainFusion())
	missed("WithoutChainFusion", noChain)
	if noChain.Stats.ChainFusions != 0 {
		t.Errorf("WithoutChainFusion compiled %d chain kernels from the stored winner", noChain.Stats.ChainFusions)
	}

	// The seed policy, on a model the policies plan differently.
	seedNone := dnnfusion.Option(func(o *core.Options) { o.Seeds = fusion.SeedNone })
	stored := tuned(models.MicroHead()).Plan.Partition()
	none := tuned(models.MicroHead(), seedNone)
	missed("SeedNone", none)
	analytical, err := dnnfusion.Compile(models.MicroHead(), dnnfusion.WithThreads(1), seedNone)
	if err != nil {
		t.Fatal(err)
	}
	want := analytical.Plan.Partition()
	if slices.Equal(want, stored) {
		t.Fatal("SeedNone plans micro-head like the default policy; the test needs a model where they differ")
	}
	if got := none.Plan.Partition(); !slices.Equal(got, want) {
		t.Errorf("SeedNone tuned to partition %v, the seed policy plans %v (stored winner: %v)", got, want, stored)
	}

	if db.PlanLen() != 4 {
		t.Errorf("database holds %d tuned plans, want one per model and planner configuration (4)", db.PlanLen())
	}
	again := tuned(models.MicroAttention())
	if again.Stats.TunedPlanHits != 1 || again.Stats.MeasuredRuns != 0 {
		t.Errorf("original configuration: hits/runs = %d/%d, want a warm start", again.Stats.TunedPlanHits, again.Stats.MeasuredRuns)
	}
	if !slices.Equal(again.Plan.Partition(), first.Plan.Partition()) {
		t.Errorf("warm start replayed %v, the search chose %v", again.Plan.Partition(), first.Plan.Partition())
	}
}
