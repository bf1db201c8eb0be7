package autotune

import (
	"math"
	"slices"
	"testing"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/rewrite"
	"dnnfusion/internal/tensor"
	"dnnfusion/internal/tuner"
)

func microGraphs() []struct {
	name  string
	build func() *graph.Graph
} {
	return []struct {
		name  string
		build func() *graph.Graph
	}{
		{"micro-mlp", models.MicroMLP},
		{"micro-attention", models.MicroAttention},
		{"micro-cnn", models.MicroCNN},
		{"micro-elementwise", models.MicroElementwise},
		{"micro-head", models.MicroHead},
	}
}

// buildECG mirrors the compile pipeline's graph preparation (clone +
// rewrite) so the enumerated candidate space matches what compileMeasured
// searches over.
func buildECG(t *testing.T, g *graph.Graph) *ecg.ECG {
	t.Helper()
	e := ecg.Build(g.Clone())
	if _, err := rewrite.NewDefaultEngine().Run(e); err != nil {
		t.Fatal(err)
	}
	return e
}

func testConfig() Config {
	return Config{ChainFusion: true, Threads: 1, Budget: 4,
		Measure: tuner.MeasureOptions{Window: 1, Rounds: 1, MaxIters: 4}}
}

// runCandidate executes one candidate plan once and clones its outputs.
func runCandidate(t *testing.T, e *ecg.ECG, plan *fusion.Plan, kernels []*codegen.Kernel, feeds map[*graph.Value]*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	x, err := engine.NewExecutorThreads(e, plan, kernels, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewSession()
	defer s.Release()
	outs, err := s.Run(nil, feeds)
	if err != nil {
		t.Fatal(err)
	}
	cloned := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		cloned[i] = o.Clone()
	}
	return cloned
}

// TestEnumerateSpecs pins the shape of the candidate space: the
// analytical baseline leads, the chain axis enumerates every mask for
// small chain counts, the NoYellow variant is present, and there are no
// duplicates.
func TestEnumerateSpecs(t *testing.T) {
	e := buildECG(t, models.MicroMLP())
	nchains := len(fusion.DetectChains(e))
	if nchains == 0 {
		t.Fatal("micro-mlp detects no chain; the enumeration test needs one")
	}
	if nchains > 3 {
		t.Fatalf("micro-mlp detects %d chains; the exhaustive-mask assertion assumes <= 3", nchains)
	}
	specs := EnumerateSpecs(e, testConfig())
	full := chainMaskAll(nchains)
	if specs[0] != (Spec{ChainMask: full}) {
		t.Errorf("first spec %+v is not the analytical baseline (mask %b)", specs[0], full)
	}
	want := (1 << uint(nchains)) + 1 // all masks + the NoYellow variant
	if len(specs) != want {
		t.Errorf("enumerated %d specs for %d chains, want %d: %+v", len(specs), nchains, want, specs)
	}
	seen := map[Spec]bool{}
	hasNoYellow := false
	for _, s := range specs {
		if seen[s] {
			t.Errorf("duplicate spec %+v", s)
		}
		seen[s] = true
		if s.NoYellow {
			hasNoYellow = true
		}
	}
	if !hasNoYellow {
		t.Error("no NoYellow (forced FuseBreak) variant enumerated")
	}

	// Without chain fusion the chain axis collapses to mask 0.
	cfg := testConfig()
	cfg.ChainFusion = false
	for _, s := range EnumerateSpecs(e, cfg) {
		if s.ChainMask != 0 {
			t.Errorf("chain-fusion-off spec %+v has a nonzero mask", s)
		}
	}
}

// TestSearchDeterministicUnderStepClock: with the measurement clock
// stubbed to a fixed step, every candidate measures identically, ties
// keep the incumbent, and the search returns the analytical choice —
// twice, identically. This is the determinism contract the CI autotune
// gate relies on.
func TestSearchDeterministicUnderStepClock(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	cfg := testConfig()
	cfg.Budget = 6
	first, err := Search(buildECG(t, models.MicroMLP()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Analytical {
		t.Errorf("frozen clock should keep the analytical choice; winner %+v", first.Spec)
	}
	if first.MeasuredRuns < 1 || first.MeasuredRuns > cfg.Budget {
		t.Errorf("MeasuredRuns = %d, want within [1, %d]", first.MeasuredRuns, cfg.Budget)
	}
	second, err := Search(buildECG(t, models.MicroMLP()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Spec != second.Spec || len(first.Tuned.Kernels) != len(second.Tuned.Kernels) {
		t.Fatalf("search not deterministic: %+v vs %+v", first.Tuned, second.Tuned)
	}
	for i := range first.Tuned.Kernels {
		a, b := first.Tuned.Kernels[i], second.Tuned.Kernels[i]
		if a.Task != b.Task || a.Schedule != b.Schedule {
			t.Errorf("kernel %d differs across searches: %+v vs %+v", i, a, b)
		}
	}
}

// TestRebuildReplaysWinner: a persisted winner rebuilds on a fresh ECG to
// the same plan shape and the same schedules, with zero measurement.
func TestRebuildReplaysWinner(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	cfg := testConfig()
	res, err := Search(buildECG(t, models.MicroAttention()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, kernels, err := Rebuild(buildECG(t, models.MicroAttention()), cfg, res.Tuned)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Blocks) != len(res.Plan.Blocks) {
		t.Fatalf("rebuilt plan has %d blocks, search had %d", len(plan.Blocks), len(res.Plan.Blocks))
	}
	if len(kernels) != len(res.Kernels) {
		t.Fatalf("rebuilt %d kernels, search had %d", len(kernels), len(res.Kernels))
	}
	for i := range kernels {
		if kernels[i].Schedule != res.Kernels[i].Schedule || kernels[i].ProducerSchedule != res.Kernels[i].ProducerSchedule {
			t.Errorf("kernel %d schedule differs after rebuild: %+v/%+v vs %+v/%+v", i,
				kernels[i].Schedule, kernels[i].ProducerSchedule, res.Kernels[i].Schedule, res.Kernels[i].ProducerSchedule)
		}
	}
}

// TestRebuildRejectsDrift: a tampered payload (task-string drift,
// truncated kernel list) must fail instead of silently applying
// schedules to the wrong kernels.
func TestRebuildRejectsDrift(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	cfg := testConfig()
	res, err := Search(buildECG(t, models.MicroMLP()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuned.Kernels) == 0 {
		t.Fatal("winner has no schedulable kernels to tamper with")
	}

	drifted := res.Tuned
	drifted.Kernels = append([]profile.TunedKernel(nil), res.Tuned.Kernels...)
	drifted.Kernels[0].Task = "sched|bogus|m=0,n=0,k=0"
	if _, _, err := Rebuild(buildECG(t, models.MicroMLP()), cfg, drifted); err == nil {
		t.Error("Rebuild accepted a drifted task string")
	}

	short := res.Tuned
	short.Kernels = res.Tuned.Kernels[:len(res.Tuned.Kernels)-1]
	if _, _, err := Rebuild(buildECG(t, models.MicroMLP()), cfg, short); err == nil {
		t.Error("Rebuild accepted a truncated kernel list")
	}
}

// TestRebuildUsesCompileSeedPolicy: the seed policy is not a search axis,
// so replay plans under the compile's own cfg.Fusion — a database entry
// tuned under one policy cannot override the caller's.
func TestRebuildUsesCompileSeedPolicy(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	res, err := Search(buildECG(t, models.MicroHead()), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Fusion.Seeds = fusion.SeedNone
	e := buildECG(t, models.MicroHead())
	plan, _, err := Rebuild(e, cfg, res.Tuned)
	if err != nil {
		t.Fatal(err)
	}
	sizes := func(p *fusion.Plan) []int {
		var out []int
		for _, b := range p.Blocks {
			out = append(out, b.Size())
		}
		return out
	}
	got, want, stored := sizes(plan), sizes(fusion.GeneratePlan(e, cfg.Fusion)), sizes(res.Plan)
	if slices.Equal(want, stored) {
		t.Fatal("SeedNone plans micro-head like the default policy; the test needs a model where they differ")
	}
	if !slices.Equal(got, want) {
		t.Errorf("rebuilt block sizes %v, the compile's seed policy plans %v (stored winner had %v)", got, want, stored)
	}
}

// TestPriorRanksUnpriceablePlanLast: a plan the simulator rejects must
// sort behind every priced candidate, not ahead of them.
func TestPriorRanksUnpriceablePlanLast(t *testing.T) {
	e := buildECG(t, models.MicroMLP())
	cfg := testConfig().withDefaults()
	plan, _, err := build(e, cfg, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	good := prior(e, plan, cfg)
	if good <= 0 || math.IsInf(good, 0) {
		t.Fatalf("prior of a valid plan = %v, want a finite positive latency", good)
	}
	plan.Blocks = append(plan.Blocks, plan.Blocks[0]) // scheduleBlocks cannot order a repeated block
	if bad := prior(e, plan, cfg); !(bad > good) {
		t.Errorf("prior of an unpriceable plan = %v, want +Inf (behind %v)", bad, good)
	}
}

// ulp is the float32 representation distance, monotonic across zero
// (the fuzz harness's comparison, reused for candidate-plan parity).
func ulp(a, b float32) uint32 {
	ba, bb := math.Float32bits(a), math.Float32bits(b)
	if ba == bb {
		return 0
	}
	norm := func(x uint32) int64 {
		if x&0x80000000 != 0 {
			return -int64(x & 0x7fffffff)
		}
		return int64(x)
	}
	d := norm(ba) - norm(bb)
	if d < 0 {
		d = -d
	}
	return uint32(d)
}

// TestEveryCandidatePlanParity is the enumerator's numeric contract:
// every plan variant the enumerator can emit — every chain mask and the
// forced-FuseBreak variant, across the whole micro zoo — executes
// bit-exact against the reference interpreter, except plans containing
// an online-softmax chain, which stay within a fixed ULP bound (the
// online two-pass recomputation reorders the reduction).
func TestEveryCandidatePlanParity(t *testing.T) {
	const onlineULPMax = 64
	for _, m := range microGraphs() {
		t.Run(m.name, func(t *testing.T) {
			e := buildECG(t, m.build())
			cfg := testConfig()
			feeds := feedsFor(e.G, 12345)
			want, err := graph.InterpretOutputs(e.G, feeds)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range EnumerateSpecs(e, cfg) {
				plan, kernels, err := Build(e, cfg, spec)
				if err != nil {
					t.Fatalf("spec %+v: %v", spec, err)
				}
				online := false
				for _, b := range plan.Blocks {
					if b.Chain != nil && b.Chain.Online {
						online = true
					}
				}
				got := runCandidate(t, e, plan, kernels, feeds)
				if len(got) != len(want) {
					t.Fatalf("spec %+v produced %d outputs, want %d", spec, len(got), len(want))
				}
				for oi := range want {
					wd, gd := want[oi].Data(), got[oi].Data()
					for i := range wd {
						if online {
							if u := ulp(wd[i], gd[i]); u > onlineULPMax {
								t.Fatalf("spec %+v output %d[%d]: %g vs %g (%d ULP > %d)", spec, oi, i, gd[i], wd[i], u, onlineULPMax)
							}
						} else if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
							t.Fatalf("spec %+v output %d[%d]: %g != %g (want bit-exact)", spec, oi, i, gd[i], wd[i])
						}
					}
				}
			}
		})
	}
}
