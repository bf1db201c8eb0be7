// Package autotune closes the measured-feedback loop over the compiler:
// instead of trusting the ECG heuristics and the analytical cache model,
// it enumerates candidate fusion plans (chain fusion on/off per detected
// chain, plus the FuseBreak variant that overrides the yellow-decision
// heuristic — the FusionSpace idea of enumerating fusion decisions as a
// bit vector), pairs each plan with the tuner's top-k schedule
// candidates, and scores the (plan, schedule) pairs with short measured
// runs of the real compiled kernels. The analytical simulator is the
// prior that ranks candidates so a bounded measurement budget is spent
// on the most promising ones; winners persist in profile.DB keyed by
// (graph fingerprint, device, batch size), so repeat compilations rebuild
// the winning plan deterministically with zero measurement.
package autotune

import (
	"fmt"
	"math"

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

// Spec names one fusion-plan variant. Rebuilding a plan from a Spec is
// deterministic (GeneratePlan and FuseChainsMask are pure functions of
// the graph and options), which is what lets a persisted winner warm-
// start a later compilation without re-search.
type Spec struct {
	// ChainMask selects which detected contraction chains fuse (bit i =
	// chain i in DetectChains order).
	ChainMask uint64
	// NoYellow forces every yellow (FuseDepend) decision to break.
	NoYellow bool
}

// Config parameterizes one search.
type Config struct {
	// Fusion is the base planner configuration (limits, latency resolver,
	// seed policy). A Spec overrides NoYellow per candidate.
	Fusion fusion.Options
	// ChainFusion gates the chain-mask axis; when false only mask 0 is
	// enumerated, matching WithoutChainFusion.
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
	Spec    Spec
	Plan    *fusion.Plan
	Kernels []*codegen.Kernel
	// MeasuredNs is the winner's measured ns/inference; MeasuredRuns the
	// measurements spent; Analytical whether the winner coincides with
	// the analytical choice (baseline plan, analytical schedules).
	MeasuredNs   int64
	MeasuredRuns int
	Analytical   bool
	// Tuned is the persistable form of the winner (the exact payload
	// Rebuild replays).
	Tuned profile.TunedPlan
}

// EnumerateSpecs spells out the candidate fusion-plan space for a graph,
// baseline (the analytical choice: every chain fused, heuristic yellow
// decisions, configured seed policy) first. With k detected chains the
// chain axis enumerates all 2^k masks for k ≤ 3, else the full mask,
// each single-chain-off mask, and the all-off mask; the NoYellow variant
// rides on the full mask. The list is deterministic and bounded — the
// measurement budget, not the enumeration, is the expensive side.
func EnumerateSpecs(e *ecg.ECG, cfg Config) []Spec {
	cfg = cfg.withDefaults()
	var full uint64
	nchains := 0
	if cfg.ChainFusion {
		nchains = len(fusion.DetectChains(e))
		full = chainMaskAll(nchains)
	}
	base := Spec{ChainMask: full}
	specs := []Spec{base}
	seen := map[Spec]bool{base: true}
	add := func(s Spec) {
		if !seen[s] {
			seen[s] = true
			specs = append(specs, s)
		}
	}
	if nchains > 0 {
		if nchains <= 3 {
			for mask := full; ; mask-- {
				add(Spec{ChainMask: mask})
				if mask == 0 {
					break
				}
			}
		} else {
			for i := 0; i < nchains && i < 64; i++ {
				add(Spec{ChainMask: full &^ (1 << uint(i))})
			}
			add(Spec{ChainMask: 0})
		}
	}
	add(Spec{ChainMask: full, NoYellow: true})
	return specs
}

// chainMaskAll is the full mask for n detected chains.
func chainMaskAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// build compiles one candidate: plan generation under the spec, chain
// fusion restricted to the spec's mask, and codegen. The shared ECG is
// read-only to this path, so candidates coexist.
func build(e *ecg.ECG, cfg Config, spec Spec) (*fusion.Plan, []*codegen.Kernel, error) {
	fopts := cfg.Fusion
	fopts.NoYellow = spec.NoYellow
	plan := fusion.GeneratePlan(e, fopts)
	if cfg.ChainFusion && spec.ChainMask != 0 {
		fusion.FuseChainsMask(e, plan, fopts, spec.ChainMask)
	}
	kernels, err := codegen.CompilePlan(e, plan, cfg.Cache)
	if err != nil {
		return nil, nil, err
	}
	return plan, kernels, nil
}

// Build compiles one candidate plan for a spec without measuring it —
// the parity suites use it to execute every plan the enumerator can
// emit against the reference interpreter.
func Build(e *ecg.ECG, cfg Config, spec Spec) (*fusion.Plan, []*codegen.Kernel, error) {
	cfg = cfg.withDefaults()
	plan, kernels, err := build(e, cfg, spec)
	if err != nil {
		return nil, nil, err
	}
	AssignSchedules(kernels, cfg.Device, nil)
	return plan, kernels, nil
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
	for _, k := range kernels {
		t, ok := taskOf(k, dev)
		if !ok {
			continue
		}
		lookups++
		k.TaskM, k.TaskN, k.TaskK = t.cons.M, t.cons.N, t.cons.K
		var ks profile.KernelSchedule
		hit := false
		if db != nil {
			ks, hit = db.LookupSchedule(t.key)
		}
		if !hit {
			misses++
			ks = t.shortlist(1)[0]
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

// snapshot captures the schedulable kernels' current schedules as the
// persistable tuned-plan payload.
func snapshot(spec Spec, kernels []*codegen.Kernel, dev *device.Device) profile.TunedPlan {
	tp := profile.TunedPlan{
		ChainMask: spec.ChainMask,
		NoYellow:  spec.NoYellow,
	}
	for _, k := range kernels {
		if t, ok := taskOf(k, dev); ok {
			tp.Kernels = append(tp.Kernels, profile.TunedKernel{Task: t.key, KernelSchedule: scheduleOf(k)})
		}
	}
	return tp
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
	specs := EnumerateSpecs(e, cfg)

	type cand struct {
		spec    Spec
		plan    *fusion.Plan
		kernels []*codegen.Kernel
		prior   float64
	}
	cands := make([]*cand, 0, len(specs))
	for _, spec := range specs {
		plan, kernels, err := build(e, cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %+v: %w", spec, err)
		}
		AssignSchedules(kernels, cfg.Device, nil)
		cands = append(cands, &cand{spec: spec, plan: plan, kernels: kernels, prior: prior(e, plan, cfg)})
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
			return nil, fmt.Errorf("autotune: measuring %+v: %w", c.spec, err)
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

	res := &Result{
		Spec:         best.spec,
		Plan:         best.plan,
		Kernels:      best.kernels,
		MeasuredNs:   bestNs,
		MeasuredRuns: runs,
		Analytical:   best == base && !scheduleDiffers,
	}
	res.Tuned = snapshot(best.spec, best.kernels, cfg.Device)
	res.Tuned.MeasuredNs = bestNs
	res.Tuned.MeasuredRuns = runs
	res.Tuned.Analytical = res.Analytical
	return res, nil
}

// Rebuild replays a persisted winner over a freshly built (and
// rewritten) ECG with zero measurement: the plan is regenerated
// deterministically from the spec, and the stored per-kernel schedules
// are applied positionally after cross-checking each kernel's canonical
// task string. A mismatch (the graph, the planner, or the device changed
// since the plan was tuned) returns an error; the caller falls back to a
// fresh search.
func Rebuild(e *ecg.ECG, cfg Config, tp profile.TunedPlan) (*fusion.Plan, []*codegen.Kernel, error) {
	cfg = cfg.withDefaults()
	spec := Spec{ChainMask: tp.ChainMask, NoYellow: tp.NoYellow}
	plan, kernels, err := build(e, cfg, spec)
	if err != nil {
		return nil, nil, err
	}
	j := 0
	for _, k := range kernels {
		t, ok := taskOf(k, cfg.Device)
		if !ok {
			continue
		}
		if j >= len(tp.Kernels) {
			return nil, nil, fmt.Errorf("autotune: tuned plan has %d kernels, rebuilt plan has more", len(tp.Kernels))
		}
		tk := tp.Kernels[j]
		if tk.Task != t.key {
			return nil, nil, fmt.Errorf("autotune: tuned kernel %d is %q, rebuilt plan has %q", j, tk.Task, t.key)
		}
		if t.chain && tk.Producer.Zero() {
			return nil, nil, fmt.Errorf("autotune: tuned kernel %d (%q) misses the producer schedule", j, tk.Task)
		}
		k.Schedule, k.ProducerSchedule = tk.Schedule, tk.Producer
		k.TaskM, k.TaskN, k.TaskK = t.cons.M, t.cons.N, t.cons.K
		j++
	}
	if j != len(tp.Kernels) {
		return nil, nil, fmt.Errorf("autotune: tuned plan has %d kernels, rebuilt plan has %d", len(tp.Kernels), j)
	}
	return plan, kernels, nil
}
