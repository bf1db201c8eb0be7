package tuner

import "dnnfusion/internal/ops"

// The schedules the executable kernels run, as opposed to the abstract
// (TileM, TileN, TileK) surface TuneGA searches for Figure 9b, are not
// searched: every kernel runs ops.ScheduleFor of its shape, the tallest
// row tile that fits M and a min(N, 512) column panel, whatever the
// device. Select and SelectChain return that rule for a task.

// ScheduleResult is the schedule of one heavy kernel task.
type ScheduleResult struct {
	Schedule ops.Schedule
}

// Select returns ops.ScheduleFor of the task's shape. The task's Device and
// the GAOptions are ignored; the signature is what the benchmark module
// compiles against.
func Select(t Task, _ GAOptions) ScheduleResult {
	return ScheduleResult{Schedule: ops.ScheduleFor(t.M, t.N)}
}

// ChainScheduleResult is the schedule pair of a fused contraction chain.
type ChainScheduleResult struct {
	// Producer tiles the chain's first contraction; Consumer tiles the
	// second.
	Producer ops.Schedule
	Consumer ops.Schedule
}

// SelectChain returns ops.ScheduleFor of each contraction of a chain.
func SelectChain(prod, cons Task) ChainScheduleResult {
	return ChainScheduleResult{Producer: ops.ScheduleFor(prod.M, prod.N), Consumer: ops.ScheduleFor(cons.M, cons.N)}
}
