// Package device is the analytical mobile-SoC simulator standing in for the
// paper's physical phones (Samsung Galaxy S20/S10, Honor Magic 2).
//
// The paper's performance effects all flow through quantities DNNFusion's
// compiler controls: the number of kernels (launch/dispatch overhead), the
// bytes of materialized intermediate results (memory bandwidth, cache and
// TLB misses), and per-kernel work (utilization). The simulator prices a
// kernel from exactly those counts with a roofline model over a cache
// hierarchy, so optimizations that reduce the counts reduce the simulated
// latency the way they reduce wall-clock on hardware. Absolute numbers are
// calibrated to the same order of magnitude as the paper's tables but are
// not expected to match; comparisons (who wins, by how much, where
// crossovers fall) are the reproduction target.
package device

import "fmt"

// Kind distinguishes CPU-style from GPU-style execution.
type Kind int

const (
	CPU Kind = iota
	GPU
)

func (k Kind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// CacheLevel is one level of the data-cache or TLB hierarchy.
type CacheLevel struct {
	Name      string
	SizeBytes int64 // for TLBs: entries × page size (coverage)
	LineBytes int64
}

// Device is a mobile CPU or GPU profile.
type Device struct {
	Name string // e.g. "Snapdragon 865 CPU"
	SoC  string
	Kind Kind

	// PeakGFLOPS is the attainable peak of the unit (fp32 for CPU, fp16
	// for GPU, matching the paper's precision choices).
	PeakGFLOPS float64
	// HeavyEff / LightEff are the fractions of peak that compute-bound
	// (Conv/GEMM) and memory-bound (elementwise) kernels reach.
	HeavyEff float64
	LightEff float64
	// DRAMBandwidthGBs is sustained DRAM bandwidth for this unit.
	DRAMBandwidthGBs float64
	// KernelLaunchMs is per-kernel dispatch cost (thread-pool wake-up on
	// CPU, command-queue launch on GPU — the paper's "kernel launch
	// overhead" that makes deep unfused models GPU-hostile).
	KernelLaunchMs float64
	// BytesPerElem is the storage width (4 for fp32 CPU, 2 for fp16 GPU).
	BytesPerElem float64

	Caches []CacheLevel
	TLBs   []CacheLevel
}

// CacheBytes returns the L1 and L2 data-cache capacities the GA tuner's
// fitness surface prices tile working sets against. Sparse profiles
// degrade conventionally rather than fail: no L2 level falls back to 4×
// L1, and a profile with no cache levels at all (a minimal hand-built
// Device) falls back to a 32 KiB L1, so tuning against it never panics.
func (d *Device) CacheBytes() (l1, l2 float64) {
	if len(d.Caches) == 0 {
		return 32 << 10, 4 * (32 << 10)
	}
	l1 = float64(d.Caches[0].SizeBytes)
	l2 = l1 * 4
	if len(d.Caches) > 1 {
		l2 = float64(d.Caches[1].SizeBytes)
	}
	return l1, l2
}

// Work describes one kernel for costing. All counts come from the compiler
// (internal/codegen) or the per-node fallback for unfused execution.
type Work struct {
	FLOPs int64
	// ReadBytes/WriteBytes are the kernel's boundary traffic in fp32
	// bytes (the device scales them by BytesPerElem/4).
	ReadBytes  int64
	WriteBytes int64
	// Heavy marks compute-bound kernels (contains Conv/GEMM-class work).
	Heavy bool
	// LayoutOptimized applies the inter-block data-format optimization's
	// efficiency bonus (§4.4.2) to heavy kernels.
	LayoutOptimized bool
	// ExtraMovementBytes is interior data-movement traffic that was NOT
	// folded into index arithmetic (charged when the intra-block
	// optimization is disabled).
	ExtraMovementBytes int64
	// Disruption counts access-order-disrupting operators (Shuffle,
	// One-to-Many) fused into a heavy kernel: they turn the contraction's
	// continuous reads into strided ones (the effect behind Table 3's
	// yellow cells). Each one costs heavy kernels a slice of efficiency.
	Disruption int
	// Quality scales kernel efficiency; baseline frameworks with weaker
	// generated kernels use values below 1. Zero means 1.
	Quality float64
}

// Cost is the priced kernel.
type Cost struct {
	TimeMs     float64
	ComputeMs  float64
	MemoryMs   float64
	OverheadMs float64
	DRAMBytes  int64
	// CacheMisses / TLBMisses are indexed like Device.Caches / TLBs.
	CacheMisses []int64
	TLBMisses   []int64
}

// layoutBonus is the heavy-kernel efficiency gain from the dominant-operator
// layout selection (§4.4.2); it is the main component of the paper's
// "other fusion-related optimizations" speedup.
const layoutBonus = 1.35

// disruptionPenalty is the per-operator efficiency loss when a shuffle or
// expanding operator is fused into a compute-bound kernel, destroying its
// continuous access pattern (§3.2's profitability discussion).
const disruptionPenalty = 0.82

// Price costs a single kernel on the device.
func (d *Device) Price(w Work) Cost {
	quality := w.Quality
	if quality == 0 {
		quality = 1
	}
	scale := d.BytesPerElem / 4
	traffic := float64(w.ReadBytes+w.WriteBytes+w.ExtraMovementBytes) * scale

	eff := d.LightEff
	if w.Heavy {
		eff = d.HeavyEff
		if w.LayoutOptimized {
			eff *= layoutBonus
		}
		for i := 0; i < w.Disruption; i++ {
			eff *= disruptionPenalty
		}
	}
	eff *= quality

	computeMs := float64(w.FLOPs) / (d.PeakGFLOPS * eff * 1e6)
	memoryMs := traffic / (d.DRAMBandwidthGBs * 1e6)
	c := Cost{
		ComputeMs:  computeMs,
		MemoryMs:   memoryMs,
		OverheadMs: d.KernelLaunchMs,
		DRAMBytes:  int64(traffic),
	}
	// Roofline: compute and memory overlap; dispatch does not.
	c.TimeMs = c.OverheadMs + maxf(computeMs, memoryMs)

	// Cache misses: every level sees the kernel's streaming traffic; the
	// fraction missing at a level grows as the working set outgrows it.
	ws := traffic
	for _, lvl := range d.Caches {
		lines := traffic / float64(lvl.LineBytes)
		frac := ws / (ws + float64(lvl.SizeBytes))
		if frac < 0.02 {
			frac = 0.02
		}
		c.CacheMisses = append(c.CacheMisses, int64(lines*frac))
	}
	for _, lvl := range d.TLBs {
		pages := traffic / float64(lvl.LineBytes)
		frac := ws / (ws + float64(lvl.SizeBytes))
		if frac < 0.02 {
			frac = 0.02
		}
		c.TLBMisses = append(c.TLBMisses, int64(pages*frac))
	}
	return c
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (d *Device) String() string { return fmt.Sprintf("%s (%s)", d.Name, d.Kind) }

// --- Profiles of the paper's three phones ----------------------------------

const page = 4096

// Snapdragon865CPU models the Kryo 585 octa-core CPU of the Galaxy S20.
func Snapdragon865CPU() *Device {
	return &Device{
		Name: "Snapdragon 865 CPU", SoC: "Snapdragon 865", Kind: CPU,
		PeakGFLOPS: 230, HeavyEff: 0.50, LightEff: 0.06,
		DRAMBandwidthGBs: 14, KernelLaunchMs: 0.15, BytesPerElem: 4,
		Caches: []CacheLevel{
			{"L1", 384 << 10, 64},
			{"L2", 1280 << 10, 64},
			{"L3", 4 << 20, 64},
		},
		TLBs: []CacheLevel{
			{"L1-TLB", 192 * page, page},
			{"L2-TLB", 2048 * page, page},
		},
	}
}

// Adreno650 models the Galaxy S20's GPU (fp16 execution).
func Adreno650() *Device {
	return &Device{
		Name: "Adreno 650 GPU", SoC: "Snapdragon 865", Kind: GPU,
		PeakGFLOPS: 1100, HeavyEff: 0.40, LightEff: 0.05,
		DRAMBandwidthGBs: 28, KernelLaunchMs: 0.35, BytesPerElem: 2,
		Caches: []CacheLevel{
			{"L1", 128 << 10, 64},
			{"L2", 1536 << 10, 64},
		},
		TLBs: nil, // the profiler reports no GPU TLB counters (Figure 8)
	}
}

// Snapdragon855CPU models the Kryo 485 CPU of the Galaxy S10.
func Snapdragon855CPU() *Device {
	d := Snapdragon865CPU()
	d.Name, d.SoC = "Snapdragon 855 CPU", "Snapdragon 855"
	d.PeakGFLOPS, d.DRAMBandwidthGBs, d.KernelLaunchMs = 185, 12, 0.18
	d.Caches[2].SizeBytes = 2 << 20
	return d
}

// Adreno640 models the Galaxy S10's GPU.
func Adreno640() *Device {
	d := Adreno650()
	d.Name, d.SoC = "Adreno 640 GPU", "Snapdragon 855"
	d.PeakGFLOPS, d.DRAMBandwidthGBs, d.KernelLaunchMs = 850, 23, 0.40
	return d
}

// Kirin980CPU models the Honor Magic 2's ARM octa-core CPU.
func Kirin980CPU() *Device {
	d := Snapdragon865CPU()
	d.Name, d.SoC = "Kirin 980 CPU", "Kirin 980"
	d.PeakGFLOPS, d.DRAMBandwidthGBs, d.KernelLaunchMs = 170, 11, 0.20
	d.Caches[2].SizeBytes = 4 << 20
	return d
}

// MaliG76 models the Honor Magic 2's GPU.
func MaliG76() *Device {
	d := Adreno650()
	d.Name, d.SoC = "Mali-G76 GPU", "Kirin 980"
	d.PeakGFLOPS, d.DRAMBandwidthGBs, d.KernelLaunchMs = 700, 20, 0.50
	return d
}

// Phone groups a named handset's CPU and GPU, as used in the portability
// evaluation (Figure 10).
type Phone struct {
	Name string
	CPU  *Device
	GPU  *Device
}

// Phones returns the paper's three evaluation handsets; the Galaxy S20 is
// the primary device of Tables 1 and 6.
func Phones() []Phone {
	return []Phone{
		{"Samsung Galaxy S20", Snapdragon865CPU(), Adreno650()},
		{"Samsung Galaxy S10", Snapdragon855CPU(), Adreno640()},
		{"Honor Magic 2", Kirin980CPU(), MaliG76()},
	}
}
