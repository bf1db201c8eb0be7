package autotune

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/rewrite"
	"dnnfusion/internal/tensor"
	"dnnfusion/internal/tuner"
)

type namedGraph struct {
	name  string
	build func() *graph.Graph
}

func microGraphs() []namedGraph {
	return []namedGraph{
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

// zooGraphs is the 15 paper models followed by the micro models.
func zooGraphs() []namedGraph {
	var out []namedGraph
	for _, m := range models.All() {
		out = append(out, namedGraph{m.Name, m.Build})
	}
	return append(out, microGraphs()...)
}

func mustCandidates(t *testing.T, e *ecg.ECG, cfg Config) []*fusion.Plan {
	t.Helper()
	plans, err := Candidates(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestCandidates pins the shape of the candidate space: the analytical
// baseline leads, every subset of a small chain count is listed, and a
// graph whose variants all name the greedy plan has exactly one candidate
// (TestPartitionRoundTrip checks that no zoo graph lists a partition
// twice).
func TestCandidates(t *testing.T) {
	e := buildECG(t, models.MicroMLP())
	if n := len(fusion.DetectChains(e)); n != 1 {
		t.Fatalf("micro-mlp detects %d chains; the subset assertion assumes 1", n)
	}
	plans := mustCandidates(t, e, testConfig())
	baseline := fusion.GeneratePlan(e, fusion.Options{})
	fusion.FuseChains(e, baseline, fusion.Options{})
	if !slices.Equal(plans[0].Partition(), baseline.Partition()) {
		t.Errorf("first candidate %v is not the analytical baseline %v", plans[0].Partition(), baseline.Partition())
	}
	// Chain fused and chain split; micro-mlp has no yellow fusion, so the
	// forced-FuseBreak variant names the baseline again and is not listed.
	if len(plans) != 2 || plans[0].ChainFusions != 1 || plans[1].ChainFusions != 0 {
		t.Errorf("micro-mlp candidates = %d, want the chain-fused and the chain-split plan", len(plans))
	}

	if head := mustCandidates(t, buildECG(t, models.MicroHead()), testConfig()); len(head) != 1 {
		t.Errorf("micro-head has %d candidates, want 1 (no chain, no yellow fusion)", len(head))
	}

	// Without chain fusion no candidate holds a chain block.
	cfg := testConfig()
	cfg.ChainFusion = false
	for _, p := range mustCandidates(t, e, cfg) {
		if p.ChainFusions != 0 {
			t.Errorf("chain-fusion-off candidate has %d chain blocks", p.ChainFusions)
		}
	}
}

// TestSearchSingleCandidateStaysAnalytical: micro-head has one candidate
// plan, so with no schedule refinement the search has nothing to prefer
// over the analytical choice — even under a clock that makes every later
// measurement faster, which used to crown a duplicate of the baseline.
func TestSearchSingleCandidateStaysAnalytical(t *testing.T) {
	var now, readings int64
	tuner.SetClock(func() int64 {
		readings++
		now += 1 << 40 / readings
		return now
	})
	defer tuner.ResetClock()
	cfg := testConfig()
	cfg.TopK = 1
	res, err := Search(buildECG(t, models.MicroHead()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuned.Analytical {
		t.Errorf("the only candidate won yet the result is not Analytical (%d runs)", res.Tuned.MeasuredRuns)
	}
	if res.Tuned.MeasuredRuns != 1 {
		t.Errorf("measured %d runs of one candidate plan", res.Tuned.MeasuredRuns)
	}
}

// TestCandidatesLeaveOneOutPast64Chains: chains are named by themselves,
// not by a bit in a machine word, so on a graph with 66 chains every
// leave-one-out candidate un-fuses exactly one chain, the last ones too.
func TestCandidatesLeaveOneOutPast64Chains(t *testing.T) {
	const pairs = 66
	g := graph.New("many-chains")
	for i := 0; i < pairs; i++ {
		x := g.AddInput(fmt.Sprintf("x%d", i), tensor.Of(4, 8))
		h := g.Apply1(ops.NewMatMul(), x, g.AddWeightShape(fmt.Sprintf("a%d", i), tensor.Of(8, 8)))
		h = g.Apply1(ops.NewRelu(), h)
		g.MarkOutput(g.Apply1(ops.NewMatMul(), h, g.AddWeightShape(fmt.Sprintf("b%d", i), tensor.Of(8, 4))))
	}
	e := ecg.Build(g)
	if n := len(fusion.DetectChains(e)); n != pairs {
		t.Fatalf("detected %d chains, want %d", n, pairs)
	}
	var leftOut [][]int
	for _, p := range mustCandidates(t, e, testConfig()) {
		if p.ChainFusions == pairs-1 {
			leftOut = append(leftOut, p.Partition())
		}
	}
	if len(leftOut) != pairs {
		t.Fatalf("%d candidates fuse all chains but one, want %d", len(leftOut), pairs)
	}
	for i, p := range leftOut {
		for _, q := range leftOut[:i] {
			if slices.Equal(p, q) {
				t.Fatalf("leave-one-out candidate %d repeats an earlier one", i)
			}
		}
	}
}

// planFacts is what must survive naming a plan by its partition.
type planFacts struct {
	members [][]int // node IDs per block, sorted
	chains  []string
	maps    []ops.MappingType
	keys    []string
	peak    int64
}

func factsOf(t *testing.T, e *ecg.ECG, p *fusion.Plan) planFacts {
	t.Helper()
	kernels, err := codegen.CompilePlan(e, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := engine.NewExecutorThreads(e, p, kernels, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := planFacts{peak: x.PlannedPeakBytes()}
	for i, b := range p.Blocks {
		var ids []int
		for _, n := range b.Nodes {
			ids = append(ids, n.ID)
		}
		slices.Sort(ids)
		chain := ""
		if b.Chain != nil {
			chain = fmt.Sprintf("%d>%d online=%t", b.Chain.Producer.ID, b.Chain.Consumer.ID, b.Chain.Online)
		}
		f.members = append(f.members, ids)
		f.chains = append(f.chains, chain)
		f.maps = append(f.maps, b.Mapping)
		f.keys = append(f.keys, kernels[i].Key)
	}
	return f
}

// TestPartitionRoundTrip is the identity's contract: for every candidate
// of every zoo graph, the partition alone rebuilds the plan — same block
// membership, chain tags, block mappings, kernel keys and planned arena
// peak — is a fixed point of the round trip, and names no other candidate.
func TestPartitionRoundTrip(t *testing.T) {
	for _, m := range zooGraphs() {
		t.Run(m.name, func(t *testing.T) {
			e := buildECG(t, m.build())
			// The planner's own plan object lists a block's nodes in
			// admission order, a rebuilt one in topological order; only the
			// arena layout can tell (by <0.01% on the two R-CNN graphs), so
			// for it the peak is left out.
			greedy := fusion.GeneratePlan(e, fusion.Options{})
			fusion.FuseChains(e, greedy, fusion.Options{})
			rebuilt, err := fusion.FromPartition(e, greedy.Partition())
			if err != nil {
				t.Fatal(err)
			}
			got, want := factsOf(t, e, rebuilt), factsOf(t, e, greedy)
			got.peak, want.peak = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the analytical plan rebuilt from its partition differs from the planner's")
			}
			plans := mustCandidates(t, e, testConfig())
			for i, p := range plans {
				part := p.Partition()
				for _, q := range plans[:i] {
					if slices.Equal(part, q.Partition()) {
						t.Errorf("candidate %d names a partition already listed", i)
					}
				}
				back, err := fusion.FromPartition(e, part)
				if err != nil {
					t.Fatalf("candidate %d: %v", i, err)
				}
				if !slices.Equal(back.Partition(), part) {
					t.Fatalf("candidate %d: partition is not a fixed point of the round trip", i)
				}
				if got, want := factsOf(t, e, back), factsOf(t, e, p); !reflect.DeepEqual(got, want) {
					t.Errorf("candidate %d: the rebuilt plan differs from the plan its partition names", i)
				}
			}
		})
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
	if !first.Tuned.Analytical {
		t.Errorf("frozen clock should keep the analytical choice; winner %v", first.Tuned.Partition)
	}
	if first.Tuned.MeasuredRuns < 1 || first.Tuned.MeasuredRuns > cfg.Budget {
		t.Errorf("MeasuredRuns = %d, want within [1, %d]", first.Tuned.MeasuredRuns, cfg.Budget)
	}
	second, err := Search(buildECG(t, models.MicroMLP()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.Tuned.Partition, second.Tuned.Partition) || !slices.Equal(first.Tuned.Schedules, second.Tuned.Schedules) {
		t.Fatalf("search not deterministic: %+v vs %+v", first.Tuned, second.Tuned)
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

// TestRebuildReplaysPreConvSchedulePlan: a tuned plan stored while Conv
// kernels were unschedulable carries the zero schedule for every conv
// block. It still replays — a stored zero schedule means the conv's default
// tile — with the task recorded, bit-exact against the interpreter.
func TestRebuildReplaysPreConvSchedulePlan(t *testing.T) {
	e := buildECG(t, models.MicroCNN())
	cfg := testConfig().withDefaults()
	plan := mustCandidates(t, e, cfg)[0]
	kernels, err := compile(e, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := profile.TunedPlan{Partition: plan.Partition()}
	convs := 0
	for _, k := range kernels {
		ks := scheduleOf(k)
		if k.DominantOp == "Conv" {
			convs++
			if ks.Schedule.Zero() {
				t.Fatalf("conv kernel %s compiled without a schedule", k.Name)
			}
			ks = profile.KernelSchedule{}
		}
		tp.Schedules = append(tp.Schedules, ks)
	}
	if convs == 0 {
		t.Fatal("micro-cnn compiled to no conv kernel")
	}
	re := buildECG(t, models.MicroCNN())
	rplan, rkernels, err := Rebuild(re, cfg, tp)
	if err != nil {
		t.Fatalf("pre-conv-schedule plan does not replay: %v", err)
	}
	for _, k := range rkernels {
		if k.DominantOp == "Conv" && (!k.Schedule.Zero() || k.TaskK == 0) {
			t.Errorf("replayed conv kernel %s: schedule %v task K %d, want the stored zero schedule and a recorded task", k.Name, k.Schedule, k.TaskK)
		}
	}
	want, err := graph.InterpretOutputs(e.G, feedsFor(e.G, 4242))
	if err != nil {
		t.Fatal(err)
	}
	got := runCandidate(t, re, rplan, rkernels, feedsFor(re.G, 4242))
	for oi := range want {
		for i, w := range want[oi].Data() {
			if g := got[oi].Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("replayed output %d[%d] = %g, interpreter says %g", oi, i, g, w)
			}
		}
	}
}

// TestPriorRanksUnpriceablePlanLast: a plan the simulator rejects must
// sort behind every priced candidate, not ahead of them.
func TestPriorRanksUnpriceablePlanLast(t *testing.T) {
	e := buildECG(t, models.MicroMLP())
	cfg := testConfig().withDefaults()
	plan := mustCandidates(t, e, cfg)[0]
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
// every candidate plan the enumerator can emit — every chain subset and
// the forced-FuseBreak variant, across the whole micro zoo — executes
// bit-exact against the reference interpreter, except plans containing
// an online-softmax chain, which stay within a fixed ULP bound (the
// online two-pass recomputation reorders the reduction).
func TestEveryCandidatePlanParity(t *testing.T) {
	const onlineULPMax = 64
	for _, m := range microGraphs() {
		t.Run(m.name, func(t *testing.T) {
			e := buildECG(t, m.build())
			cfg := testConfig().withDefaults()
			feeds := feedsFor(e.G, 12345)
			want, err := graph.InterpretOutputs(e.G, feeds)
			if err != nil {
				t.Fatal(err)
			}
			for ci, plan := range mustCandidates(t, e, cfg) {
				kernels, err := compile(e, plan, cfg)
				if err != nil {
					t.Fatalf("candidate %d: %v", ci, err)
				}
				online := false
				for _, b := range plan.Blocks {
					if b.Chain != nil && b.Chain.Online {
						online = true
					}
				}
				got := runCandidate(t, e, plan, kernels, feeds)
				if len(got) != len(want) {
					t.Fatalf("candidate %d produced %d outputs, want %d", ci, len(got), len(want))
				}
				for oi := range want {
					wd, gd := want[oi].Data(), got[oi].Data()
					for i := range wd {
						if online {
							if u := ulp(wd[i], gd[i]); u > onlineULPMax {
								t.Fatalf("candidate %d output %d[%d]: %g vs %g (%d ULP > %d)", ci, oi, i, gd[i], wd[i], u, onlineULPMax)
							}
						} else if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
							t.Fatalf("candidate %d output %d[%d]: %g != %g (want bit-exact)", ci, oi, i, gd[i], wd[i])
						}
					}
				}
			}
		})
	}
}
