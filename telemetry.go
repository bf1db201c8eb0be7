package dnnfusion

import (
	"dnnfusion/internal/engine"
	"dnnfusion/internal/obs"
)

// EnableProfiling arms process-global telemetry: sessions start timing
// every kernel execution into per-kernel accounting (Model.Profile) and
// latency histograms. The hook follows internal/faultinject's discipline —
// unarmed, the hot path pays one atomic load per run; armed, it pays clock
// reads and atomic updates but still zero allocations, so the warmed
// Runner.Run zero-allocs guarantee holds either way.
//
// Calls nest: profiling stays on until every EnableProfiling has been
// matched by a DisableProfiling. The serve package arms it for the
// lifetime of each serving Registry, so a serving process is profiled by
// default and /metrics carries per-kernel histograms.
func EnableProfiling() { obs.Arm() }

// DisableProfiling undoes one EnableProfiling.
func DisableProfiling() { obs.Disarm() }

// ProfilingEnabled reports whether per-kernel profiling is armed.
func ProfilingEnabled() bool { return obs.Armed() }

// KernelProfile is one compiled kernel's cumulative execution profile,
// accumulated across every Runner of the model while profiling was armed.
type KernelProfile struct {
	// Kernel is the fused kernel's name; Schedule its tuner-selected tile
	// schedule rendered compactly ("rt4/cp128", with "+prod:..." for a
	// chain-fused kernel's producer schedule, or "default").
	Kernel   string `json:"kernel"`
	Schedule string `json:"schedule"`
	// Chain marks a chain-fused (streaming contraction) kernel.
	Chain bool `json:"chain,omitempty"`
	// Scalar marks a kernel with a scalar-fallback path: an operand too
	// large to stage is pulled element by element through the scalar
	// oracle, so the kernel may run far above its unfused cost. False for
	// every kernel that is blocked end to end — the normal case.
	Scalar bool `json:"scalar,omitempty"`
	// ScratchBytes is the kernel's session scratch for one worker lane:
	// operand buffers and stripe registers of its pointwise programs,
	// contraction accumulators, panels and row windows, staged operands. A
	// session holds Lanes times this per kernel, outside PlannedPeakBytes.
	ScratchBytes int64 `json:"scratch_bytes"`
	// Lanes is the worker-lane count the kernel executes over.
	Lanes int `json:"lanes"`
	// Runs counts profiled executions; TotalNs their summed wall time;
	// MeanNs the mean per execution (0 when never profiled).
	Runs    uint64  `json:"runs"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// Profile snapshots the model's per-kernel execution profile in execution
// order. Counts accumulate only while profiling is armed (EnableProfiling
// or a live serving Registry); a model that has never run profiled reports
// zero runs for every kernel.
func (m *Model) Profile() []KernelProfile {
	return kernelProfiles(m.Compiled.Profile())
}

// ScratchBytes is the session scratch the model's kernels hold for one
// worker lane, summed over kernels (KernelProfile.ScratchBytes): the memory
// a bound session pins per lane beyond PlannedPeakBytes.
func (m *Model) ScratchBytes() int64 {
	var total int64
	for _, p := range m.Compiled.Profile() {
		total += p.ScratchBytes
	}
	return total
}

func kernelProfiles(eng []engine.KernelProfile) []KernelProfile {
	out := make([]KernelProfile, len(eng))
	for i, p := range eng {
		sched := p.Schedule.String()
		if p.Chain && !p.Producer.Zero() {
			sched += "+prod:" + p.Producer.String()
		}
		kp := KernelProfile{
			Kernel:       p.Kernel,
			Schedule:     sched,
			Chain:        p.Chain,
			Scalar:       p.Scalar,
			Lanes:        p.Lanes,
			ScratchBytes: p.ScratchBytes,
			Runs:         p.Runs,
			TotalNs:      p.TotalNs,
		}
		if p.Runs > 0 {
			kp.MeanNs = float64(p.TotalNs) / float64(p.Runs)
		}
		out[i] = kp
	}
	return out
}

// Profile snapshots the batch-capacity variant's per-kernel profile (the
// kernels a coalesced batch executes), under the same accumulation rules
// as Model.Profile.
func (bm *BatchModel) Profile() []KernelProfile { return bm.m.Profile() }
