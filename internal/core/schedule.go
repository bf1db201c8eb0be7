package core

import (
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tuner"
)

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

// selectSchedule returns the task's analytically best schedule.
func (t kernelTask) selectSchedule() profile.KernelSchedule {
	if t.chain {
		r := tuner.SelectChain(t.prod, t.cons)
		return profile.KernelSchedule{Schedule: r.Consumer, Producer: r.Producer}
	}
	return profile.KernelSchedule{Schedule: tuner.Select(t.cons, tuner.GAOptions{}).Schedule}
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
			ks = t.selectSchedule()
			selected[t.key] = ks
			if db != nil {
				db.InsertSchedule(t.key, ks)
			}
		}
		k.Schedule, k.ProducerSchedule = ks.Schedule, ks.Producer
	}
	return lookups, misses
}
