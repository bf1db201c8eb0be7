package tuner

import (
	"testing"
	"testing/quick"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/rewrite"
)

func task() Task {
	return Task{M: 256, N: 256, K: 512, Device: device.Snapdragon865CPU()}
}

func TestFitnessBounds(t *testing.T) {
	f := func(mi, ni, ki, ui uint8, vec bool) bool {
		p := Params{
			TileM:     tileChoices[int(mi)%len(tileChoices)],
			TileN:     tileChoices[int(ni)%len(tileChoices)],
			TileK:     tileChoices[int(ki)%len(tileChoices)],
			Unroll:    unrollChoices[int(ui)%len(unrollChoices)],
			Vectorize: vec,
		}
		s := Fitness(task(), p)
		return s > 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if Fitness(task(), Params{}) != 0 {
		t.Error("zero tiles must score 0")
	}
}

func TestFitnessDeterministic(t *testing.T) {
	p := Params{TileM: 16, TileN: 16, TileK: 32, Unroll: 4, Vectorize: true}
	if Fitness(task(), p) != Fitness(task(), p) {
		t.Error("fitness not deterministic")
	}
}

func TestGAImprovesOverGenerations(t *testing.T) {
	res := TuneGA(task(), GAOptions{Seed: 7})
	if res.Score <= 0 {
		t.Fatal("GA found nothing")
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if last < first {
		t.Errorf("best-so-far regressed: %v -> %v", first, last)
	}
	if res.Trials != 16*12 {
		t.Errorf("trials = %d, want population*generations", res.Trials)
	}
}

func TestGABeatsRandomAtEqualBudget(t *testing.T) {
	// Averaged over seeds, GA should match or beat random search with the
	// same trial budget — the premise of the paper's fast tuning claim.
	var gaWins int
	const seeds = 7
	for s := uint64(1); s <= seeds; s++ {
		ga := TuneGA(task(), GAOptions{Seed: s})
		rnd := TuneRandom(task(), ga.Trials, s)
		if ga.Score >= rnd.Score {
			gaWins++
		}
	}
	if gaWins < seeds/2+1 {
		t.Errorf("GA won only %d/%d seed matchups", gaWins, seeds)
	}
}

func TestGAReproducible(t *testing.T) {
	a := TuneGA(task(), GAOptions{Seed: 3})
	b := TuneGA(task(), GAOptions{Seed: 3})
	if a.Best != b.Best || a.Score != b.Score {
		t.Error("same seed produced different tuning results")
	}
}

func TestRandomSearchMonotoneInBudget(t *testing.T) {
	small := TuneRandom(task(), 16, 5)
	big := TuneRandom(task(), 512, 5)
	if big.Score < small.Score {
		t.Errorf("more random trials found a worse result: %v < %v", big.Score, small.Score)
	}
}

func TestGoodTilesBeatDegenerateTiles(t *testing.T) {
	good := Fitness(task(), Params{TileM: 32, TileN: 32, TileK: 64, Unroll: 4, Vectorize: true})
	degenerate := Fitness(task(), Params{TileM: 1, TileN: 1, TileK: 1, Unroll: 1, Vectorize: false})
	if good <= degenerate {
		t.Errorf("fitness surface inverted: good %v <= degenerate %v", good, degenerate)
	}
}

// --- Kernel schedules (tuner.Select) -------------------------------------

func selTask(m, n, k int) Task {
	return Task{M: m, N: n, K: k, Device: device.Snapdragon865CPU()}
}

func TestSelectDeterministic(t *testing.T) {
	a := Select(selTask(128, 96, 64), GAOptions{})
	b := Select(selTask(128, 96, 64), GAOptions{})
	if a.Schedule != b.Schedule {
		t.Errorf("same task selected different schedules: %+v vs %+v", a, b)
	}
}

// zooKernels plans every paper and micro model the way core.Compile does
// and returns their kernels.
func zooKernels(t *testing.T) []*codegen.Kernel {
	t.Helper()
	var graphs []*graph.Graph
	for _, spec := range models.All() {
		graphs = append(graphs, spec.Build())
	}
	for _, m := range models.MicroModels() {
		graphs = append(graphs, m.Build())
	}
	var all []*codegen.Kernel
	for _, g := range graphs {
		e := ecg.Build(g)
		if _, err := rewrite.NewDefaultEngine().Run(e); err != nil {
			t.Fatalf("%s: rewrite: %v", g.Name, err)
		}
		plan := fusion.GeneratePlan(e, fusion.Options{})
		fusion.FuseChains(e, plan, fusion.Options{})
		kernels, err := codegen.CompilePlan(e, plan, nil)
		if err != nil {
			t.Fatalf("%s: codegen: %v", g.Name, err)
		}
		all = append(all, kernels...)
	}
	return all
}

// TestZooSchedulesClosedForm pins the one schedule rule on every kernel of
// the 15 paper models and the 5 micro models: codegen records
// ops.ScheduleFor of each task (both contractions of a chain), Select and
// SelectChain return the same, and every task — M = 1 and 2 included —
// runs a row tile the SIMD tile serves.
func TestZooSchedulesClosedForm(t *testing.T) {
	single, chains := 0, 0
	for _, k := range zooKernels(t) {
		var want, wantProd ops.Schedule
		if pm, pn, pk, cm, cn, ck, ok := k.ChainScheduleTasks(); ok {
			chains++
			want, wantProd = ops.ScheduleFor(cm, cn), ops.ScheduleFor(pm, pn)
			if got := SelectChain(selTask(pm, pn, pk), selTask(cm, cn, ck)); got.Consumer != want || got.Producer != wantProd {
				t.Errorf("%s: SelectChain = %+v, want %v/%v", k.Name, got, want, wantProd)
			}
			if !ops.SIMDRowTile(wantProd.RowTile) {
				t.Errorf("%s: producer task %dx%dx%d runs %v, not a SIMD row tile", k.Name, pm, pn, pk, wantProd)
			}
		} else if m, n, kk, ok := k.ScheduleTask(); ok {
			single++
			want = ops.ScheduleFor(m, n)
			if got := Select(selTask(m, n, kk), GAOptions{}).Schedule; got != want {
				t.Errorf("%s: Select = %v, want %v", k.Name, got, want)
			}
		}
		if k.Schedule != want || k.ProducerSchedule != wantProd {
			t.Errorf("%s: task %dx%dx%d records %v/%v, want %v/%v",
				k.Name, k.TaskM, k.TaskN, k.TaskK, k.Schedule, k.ProducerSchedule, want, wantProd)
		}
		if k.TaskM > 0 && !ops.SIMDRowTile(k.Schedule.RowTile) {
			t.Errorf("%s: task %dx%dx%d runs %v, not a SIMD row tile", k.Name, k.TaskM, k.TaskN, k.TaskK, k.Schedule)
		}
	}
	// The zoo's tasks are its MatMul/Gemm shapes and its convs' per-group
	// GEMM shapes (Pool kernels carry no task).
	if single < 20 || chains == 0 {
		t.Fatalf("zoo yielded %d scheduled kernels and %d chain kernels; the walk is broken", single, chains)
	}
}

func TestSelectNormalizedAgainstShape(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{1, 16, 64}, {8, 10, 128}, {16, 96, 64}, {128, 96, 64}, {512, 8, 27}, {1000, 1000, 200},
	} {
		s := Select(selTask(tc.m, tc.n, tc.k), GAOptions{}).Schedule
		switch s.RowTile {
		case 1, 2, 4, 8:
		default:
			t.Errorf("task %v: unsupported row tile %d", tc, s.RowTile)
		}
		if s.RowTile > tc.m {
			t.Errorf("task %v: row tile %d taller than M", tc, s.RowTile)
		}
		if s.ColPanel > tc.n || (tc.n >= 8 && s.ColPanel < 8) {
			t.Errorf("task %v: panel %d outside [8, N]", tc, s.ColPanel)
		}
	}
}

// TestSelectTallerTilesForTallerInputs pins the batching mechanism: a
// batch-stacked (taller M) variant of the same kernel must not select a
// shorter row tile, and a single-row kernel can only select height 1.
func TestSelectTallerTilesForTallerInputs(t *testing.T) {
	single := Select(selTask(1, 16, 64), GAOptions{})
	if single.Schedule.RowTile != 1 {
		t.Errorf("M=1 selected row tile %d", single.Schedule.RowTile)
	}
	batched := Select(selTask(8, 16, 64), GAOptions{})
	if batched.Schedule.RowTile <= single.Schedule.RowTile {
		t.Errorf("batch-stacked task did not select a taller tile: %d vs %d",
			batched.Schedule.RowTile, single.Schedule.RowTile)
	}
}
