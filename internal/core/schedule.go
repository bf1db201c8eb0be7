package core

import (
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/tuner"
)

// kernelTask is one schedulable kernel's tuning task: the GEMM-shape task
// the tuner ranks — two of them, sharing a row tile, for a chain-fused
// kernel. It is comparable, so it keys the selections of one compile.
type kernelTask struct {
	chain      bool
	prod, cons tuner.Task
}

// taskOf derives a kernel's tuning task; ok is false for kernels with
// nothing to schedule.
func taskOf(k *codegen.Kernel, dev *device.Device) (kernelTask, bool) {
	if pm, pn, pk, cm, cn, ck, ok := k.ChainScheduleTasks(); ok {
		return kernelTask{
			chain: true,
			prod:  tuner.Task{M: pm, N: pn, K: pk, Device: dev},
			cons:  tuner.Task{M: cm, N: cn, K: ck, Device: dev},
		}, true
	}
	if m, n, kk, ok := k.ScheduleTask(); ok {
		return kernelTask{cons: tuner.Task{M: m, N: n, K: kk, Device: dev}}, true
	}
	return kernelTask{}, false
}

// selectSchedule returns the task's analytically best schedule; Producer
// is zero unless the kernel is chain-fused.
func (t kernelTask) selectSchedule() tuner.ChainScheduleResult {
	if t.chain {
		return tuner.SelectChain(t.prod, t.cons)
	}
	return tuner.ChainScheduleResult{Consumer: tuner.Select(t.cons, tuner.GAOptions{}).Schedule}
}

// AssignSchedules makes the kernel schedule a compile artifact: every
// schedulable kernel gets its tuning task recorded and the tuner's
// analytically best tile schedule for it assigned (§4.3–4.4 pair fusion
// with tuned per-kernel schedules). Selection is deterministic per (shape,
// device) and costs microseconds, so it runs on every compile; kernels of
// one compile with the same task (a CNN's repeated conv shapes) share one
// selection. The same model therefore always compiles to the same
// schedules; they are applied to the kernels' Source trees at session bind
// time (codegen.BindParallel).
func AssignSchedules(kernels []*codegen.Kernel, dev *device.Device) {
	selected := map[kernelTask]tuner.ChainScheduleResult{}
	for _, k := range kernels {
		t, ok := taskOf(k, dev)
		if !ok {
			continue
		}
		k.TaskM, k.TaskN, k.TaskK = t.cons.M, t.cons.N, t.cons.K
		s, hit := selected[t]
		if !hit {
			s = t.selectSchedule()
			selected[t] = s
		}
		k.Schedule, k.ProducerSchedule = s.Consumer, s.Producer
	}
}
