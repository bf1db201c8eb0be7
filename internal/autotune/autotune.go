// Package autotune closes the measured-feedback loop over the compiler:
// instead of trusting the ECG heuristics and the analytical cache model,
// it enumerates candidate fusion plans — node partitions: the greedy
// planner's, with chain fusion decided per detected chain, plus the
// variant whose yellow (FuseDepend) decisions all break — pairs each plan
// with the tuner's top-k schedule candidates, and scores the (plan,
// schedule) pairs with short measured runs of the real compiled kernels.
// The analytical simulator is the prior that ranks candidates so a bounded
// measurement budget is spent on the most promising ones; winners persist
// in profile.DB as (partition, per-block schedules) keyed by graph
// fingerprint, device, batch size and planner configuration, so repeat
// compilations replay the winning plan with zero measurement and no
// planning.
package autotune

import (
	"fmt"
	"math"
	"slices"

	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/engine"
	"dnnfusion/internal/fusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tensor"
	"dnnfusion/internal/tuner"
)

// Config parameterizes one search.
type Config struct {
	// Fusion is the planner configuration (limits, latency resolver,
	// seed policy) the candidates are planned under.
	Fusion fusion.Options
	// ChainFusion gates the chain axis; when false no candidate fuses a
	// chain, matching WithoutChainFusion.
	ChainFusion bool
	// Device is the schedule-tuning device profile.
	Device *device.Device
	// Budget caps measured candidates: every timed (plan, schedule)
	// measurement counts against it. At least one (the analytical
	// baseline) is always measured.
	Budget int
	// TopK is the per-kernel schedule shortlist length for the
	// refinement stage. Zero means 3.
	TopK int
	// Cache shares generated kernels across candidates (and with the
	// surrounding compilation).
	Cache *codegen.Cache
	// Threads/Pool mirror the final executor's worker configuration so
	// candidates are measured the way the model will run.
	Threads int
	Pool    *engine.Pool
	// Measure sizes each timed run.
	Measure tuner.MeasureOptions
	// Seed derives the deterministic random input data.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.Budget < 1 {
		c.Budget = 1
	}
	if c.Device == nil {
		c.Device = device.Snapdragon865CPU()
	}
	return c
}

// Result is a search's winner, ready to slot into the compilation
// pipeline in place of the analytical plan and schedules.
type Result struct {
	Plan    *fusion.Plan
	Kernels []*codegen.Kernel
	// Tuned is the persistable form of the winner (the exact payload
	// Rebuild replays) with the search's accounting: measured ns per
	// inference, measurements spent, and whether the winner coincides
	// with the analytical choice (baseline plan, analytical schedules).
	Tuned profile.TunedPlan
}

// Candidates spells out the candidate fusion plans for a graph, each
// partition once, baseline (the analytical choice: every chain fused,
// heuristic yellow decisions, configured seed policy) first. Each is the
// greedy plan with a subset of the detected chains fused one by one: with
// k chains, every subset for k ≤ 3, else all of them, all but each one,
// and none; last comes the variant whose yellow decisions all break, with
// every chain fused. The list is deterministic and bounded — the
// measurement budget, not the enumeration, is the expensive side.
func Candidates(e *ecg.ECG, cfg Config) ([]*fusion.Plan, error) {
	var chains []*fusion.Chain
	if cfg.ChainFusion {
		chains = fusion.DetectChains(e)
	}
	var plans []*fusion.Plan
	var parts [][]int
	var failed error
	// add lists the plan that fuses the chains keep selects, in detection
	// order, over a greedy partition — unless it is already listed.
	add := func(greedy []int, keep func(chain int) bool) {
		p, err := fusion.FromPartition(e, greedy)
		if err != nil {
			failed = err
			return
		}
		for i, c := range chains {
			if keep(i) {
				p.FuseChain(c, cfg.Fusion)
			}
		}
		part := p.Partition()
		if !slices.ContainsFunc(parts, func(q []int) bool { return slices.Equal(q, part) }) {
			plans, parts = append(plans, p), append(parts, part)
		}
	}
	every := func(int) bool { return true }
	greedy := fusion.GeneratePlan(e, cfg.Fusion).Partition()
	add(greedy, every)
	if n := len(chains); n <= 3 {
		for set := 1<<n - 2; set >= 0; set-- {
			add(greedy, func(i int) bool { return set>>i&1 == 1 })
		}
	} else {
		for out := range n {
			add(greedy, func(i int) bool { return i != out })
		}
		add(greedy, func(int) bool { return false })
	}
	// Under this resolver a fused set of n+1 operators always prices above
	// its split ((n+1)² > n² + 1), so the planner breaks every yellow
	// decision.
	broken := cfg.Fusion
	broken.Latency = func(nodes []*graph.Node) float64 { return float64(len(nodes) * len(nodes)) }
	add(fusion.GeneratePlan(e, broken).Partition(), every)
	return plans, failed
}

// compile generates a candidate plan's kernels and gives them their
// analytical schedules. The shared ECG is read-only to this path, so
// candidates coexist.
func compile(e *ecg.ECG, plan *fusion.Plan, cfg Config) ([]*codegen.Kernel, error) {
	kernels, err := codegen.CompilePlan(e, plan, cfg.Cache)
	if err != nil {
		return nil, err
	}
	AssignSchedules(kernels, cfg.Device, nil)
	return kernels, nil
}

// kernelTask is one schedulable kernel's tuning task: the canonical key it
// is cached and persisted under, and the GEMM-shape task the tuner ranks —
// two of them, sharing a row tile, for a chain-fused kernel.
type kernelTask struct {
	key        string
	chain      bool
	prod, cons tuner.Task
}

// taskOf derives a kernel's tuning task; ok is false for kernels with
// nothing to schedule.
func taskOf(k *codegen.Kernel, dev *device.Device) (kernelTask, bool) {
	if pm, pn, pk, cm, cn, ck, ok := k.ChainScheduleTasks(); ok {
		return kernelTask{
			key:   profile.ChainScheduleKey(dev.Name, pm, pn, pk, cm, cn, ck),
			chain: true,
			prod:  tuner.Task{M: pm, N: pn, K: pk, Device: dev},
			cons:  tuner.Task{M: cm, N: cn, K: ck, Device: dev},
		}, true
	}
	if m, n, kk, ok := k.ScheduleTask(); ok {
		return kernelTask{
			key:  profile.ScheduleKey(dev.Name, m, n, kk),
			cons: tuner.Task{M: m, N: n, K: kk, Device: dev},
		}, true
	}
	return kernelTask{}, false
}

// shortlist returns the task's k analytically best schedules, best first.
func (t kernelTask) shortlist(k int) []profile.KernelSchedule {
	var out []profile.KernelSchedule
	if t.chain {
		for _, r := range tuner.SelectChainTopK(t.prod, t.cons, k) {
			out = append(out, profile.KernelSchedule{Schedule: r.Consumer, Producer: r.Producer})
		}
		return out
	}
	for _, s := range tuner.SelectTopK(t.cons, k) {
		out = append(out, profile.KernelSchedule{Schedule: s})
	}
	return out
}

// AssignSchedules makes the kernel schedule a compile artifact: every
// schedulable kernel gets its tuning task recorded and its tile schedule
// assigned — the one db caches for the task when there is one, else the
// tuner's analytical best (§4.3–4.4 pair fusion with tuned per-kernel
// schedules), which is then cached so repeat compilations skip the
// selection: the schedule half of Figure 9b's caching effect. db may be
// nil. Selection is deterministic per (shape, device), so the same model
// always compiles to the same schedules; they are applied to the kernels'
// Source trees at session bind time (codegen.BindParallel). It returns how
// many kernels were schedulable and how many needed a fresh selection.
func AssignSchedules(kernels []*codegen.Kernel, dev *device.Device, db *profile.DB) (lookups, misses int) {
	// selected holds this call's fresh selections, so kernels with one task
	// (a CNN's repeated conv shapes) share one selection without a db too.
	selected := map[string]profile.KernelSchedule{}
	for _, k := range kernels {
		t, ok := taskOf(k, dev)
		if !ok {
			continue
		}
		lookups++
		k.TaskM, k.TaskN, k.TaskK = t.cons.M, t.cons.N, t.cons.K
		ks, hit := selected[t.key]
		if !hit && db != nil {
			ks, hit = db.LookupSchedule(t.key)
		}
		if !hit {
			misses++
			ks = t.shortlist(1)[0]
			selected[t.key] = ks
			if db != nil {
				db.InsertSchedule(t.key, ks)
			}
		}
		k.Schedule, k.ProducerSchedule = ks.Schedule, ks.Producer
	}
	return lookups, misses
}

// scheduleOf reads a kernel's current schedule as the record type the
// shortlists, the cache, and tuned plans share.
func scheduleOf(k *codegen.Kernel) profile.KernelSchedule {
	return profile.KernelSchedule{Schedule: k.Schedule, Producer: k.ProducerSchedule}
}

// feedsFor builds deterministic random input data for the graph: the
// measurement workload. The seed folds the caller's (fingerprint-
// derived) seed with the input index so inputs differ but runs repeat.
func feedsFor(g *graph.Graph, seed uint64) map[*graph.Value]*tensor.Tensor {
	feeds := make(map[*graph.Value]*tensor.Tensor, len(g.Inputs))
	for i, in := range g.Inputs {
		feeds[in] = tensor.NewOf(in.Shape).Rand(seed*1099511628211 + uint64(i) + 1)
	}
	return feeds
}

// measure times one candidate: a throwaway executor over the shared ECG
// (borrowing the deployment pool when one is configured, so candidates
// run on the lanes the model will use), a dedicated warmed session, and
// a short best-of-N window.
func measure(e *ecg.ECG, plan *fusion.Plan, kernels []*codegen.Kernel, cfg Config, feeds map[*graph.Value]*tensor.Tensor) (int64, error) {
	var x *engine.Executor
	var err error
	if cfg.Pool != nil {
		x, err = engine.NewExecutorPool(e, plan, kernels, cfg.Pool)
	} else {
		x, err = engine.NewExecutorThreads(e, plan, kernels, cfg.Threads)
	}
	if err != nil {
		return 0, err
	}
	run, release, err := engine.MeasureRunner(x, feeds)
	if err != nil {
		return 0, err
	}
	defer release()
	return tuner.Measure(run, cfg.Measure)
}

// prior ranks a candidate with the analytical device simulator — the
// model that used to be the only opinion, demoted to a pruning prior. A
// plan the simulator cannot price ranks last, not first.
func prior(e *ecg.ECG, plan *fusion.Plan, cfg Config) float64 {
	rep, err := engine.Simulate(e, plan, cfg.Device, engine.Options{Cache: cfg.Cache})
	if err != nil {
		return math.Inf(1)
	}
	return rep.LatencyMs
}

// Search runs the joint fusion-plan × schedule search over a rewritten
// graph's ECG. Stage 1 enumerates plan variants, ranks them by the
// analytical prior (baseline always measured first), and measures the
// best-ranked ones with analytical schedules until half the budget is
// spent. Stage 2 spends the remaining budget refining the winning
// plan's kernel schedules greedily — heaviest kernel first, trying the
// tuner's top-k shortlist, keeping strict improvements. Ties keep the
// incumbent, so under a frozen measurement clock the search degrades to
// exactly the analytical choice.
func Search(e *ecg.ECG, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plans, err := Candidates(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}

	type cand struct {
		plan    *fusion.Plan
		kernels []*codegen.Kernel
		prior   float64
	}
	cands := make([]*cand, 0, len(plans))
	for i, plan := range plans {
		kernels, err := compile(e, plan, cfg)
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %d: %w", i, err)
		}
		cands = append(cands, &cand{plan: plan, kernels: kernels, prior: prior(e, plan, cfg)})
	}
	// Prior order, baseline pinned first: it is the no-measurement
	// choice, so it must always be in the measured set (the search can
	// only ever beat it, never silently lose to it).
	base := cands[0]
	rest := append([]*cand(nil), cands[1:]...)
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && rest[j].prior < rest[j-1].prior; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	ordered := append([]*cand{base}, rest...)

	planBudget := cfg.Budget
	if cfg.Budget > 2 {
		planBudget = (cfg.Budget + 1) / 2
	}
	if planBudget > len(ordered) {
		planBudget = len(ordered)
	}

	feeds := feedsFor(e.G, cfg.Seed)
	runs := 0
	var best *cand
	var bestNs int64
	for _, c := range ordered[:planBudget] {
		ns, err := measure(e, c.plan, c.kernels, cfg, feeds)
		if err != nil {
			return nil, fmt.Errorf("autotune: measuring a %d-kernel candidate: %w", len(c.kernels), err)
		}
		runs++
		if best == nil || ns < bestNs {
			best, bestNs = c, ns
		}
	}

	scheduleDiffers := false
	remaining := cfg.Budget - runs
	if remaining > 0 && cfg.TopK > 1 {
		// Heaviest kernels first: their schedules move the most time.
		order := make([]*codegen.Kernel, len(best.kernels))
		copy(order, best.kernels)
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j].FLOPs > order[j-1].FLOPs; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	refine:
		for _, k := range order {
			t, ok := taskOf(k, cfg.Device)
			if !ok {
				continue
			}
			for _, alt := range t.shortlist(cfg.TopK) {
				prev := scheduleOf(k)
				if alt == prev {
					continue
				}
				if remaining <= 0 {
					break refine
				}
				k.Schedule, k.ProducerSchedule = alt.Schedule, alt.Producer
				ns, err := measure(e, best.plan, best.kernels, cfg, feeds)
				if err != nil {
					return nil, fmt.Errorf("autotune: refining kernel %s: %w", k.Name, err)
				}
				runs++
				remaining--
				if ns < bestNs {
					bestNs = ns
					scheduleDiffers = true
				} else {
					k.Schedule, k.ProducerSchedule = prev.Schedule, prev.Producer
				}
			}
		}
	}

	tuned := profile.TunedPlan{
		Partition:    best.plan.Partition(),
		MeasuredNs:   bestNs,
		MeasuredRuns: runs,
		Analytical:   best == base && !scheduleDiffers,
	}
	for _, k := range best.kernels { // kernel i is block i's
		tuned.Schedules = append(tuned.Schedules, scheduleOf(k))
	}
	return &Result{Plan: best.plan, Kernels: best.kernels, Tuned: tuned}, nil
}

// Rebuild replays a persisted winner over a freshly built (and
// rewritten) ECG with zero measurement and no planning: the stored
// partition names the blocks, codegen compiles them, and block i's stored
// schedule goes to kernel i. A record that does not fit the graph (see
// fusion.FromPartition) or does not hold one schedule per block returns
// an error; the caller falls back to a fresh search.
func Rebuild(e *ecg.ECG, cfg Config, tp profile.TunedPlan) (*fusion.Plan, []*codegen.Kernel, error) {
	cfg = cfg.withDefaults()
	plan, err := fusion.FromPartition(e, tp.Partition)
	if err != nil {
		return nil, nil, err
	}
	if len(tp.Schedules) != len(plan.Blocks) {
		return nil, nil, fmt.Errorf("autotune: tuned plan has %d schedules for %d blocks", len(tp.Schedules), len(plan.Blocks))
	}
	kernels, err := codegen.CompilePlan(e, plan, cfg.Cache)
	if err != nil {
		return nil, nil, err
	}
	for i, k := range kernels {
		if t, ok := taskOf(k, cfg.Device); ok {
			k.TaskM, k.TaskN, k.TaskK = t.cons.M, t.cons.N, t.cons.K
		}
		k.Schedule, k.ProducerSchedule = tp.Schedules[i].Schedule, tp.Schedules[i].Producer
	}
	return plan, kernels, nil
}
