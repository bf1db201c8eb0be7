// Package obs is the dependency-free telemetry core of the serving stack:
// atomic counters, gauges, and fixed-bucket latency histograms collected in
// a Registry that renders Prometheus text exposition format (0.0.4).
//
// The package follows internal/faultinject's armed/unarmed discipline: hot
// paths that would pay per-operation timing (the engine's per-kernel spans)
// gate on Armed(), which is a single atomic load. With nothing armed the
// instrumentation is a no-op and the warmed inference path stays at zero
// allocations per run; arming adds only clock reads and atomic updates —
// still zero allocations — so telemetry can run in production.
//
// Metric instruments are standalone values: a Histogram can be owned by an
// executor and attached to a serving registry later (Registry.Attach), so
// one instrument feeds both the owner's aggregation and the /metrics
// surface without double accounting.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// armed counts active arm requests (Arm/Disarm nest); 0 keeps instrumented
// hot paths on their no-op fast path, exactly like faultinject.active.
var armed atomic.Int32

// Arm enables armed-gated instrumentation (per-kernel execution spans).
// Calls nest: telemetry stays armed until every Arm has been matched by a
// Disarm.
func Arm() { armed.Add(1) }

// Disarm undoes one Arm. Extra Disarms are ignored rather than driving the
// count negative, so a defensive double-disarm cannot mask a later Arm.
func Disarm() {
	for {
		cur := armed.Load()
		if cur <= 0 {
			return
		}
		if armed.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// Armed reports whether any arm request is active. It is a single atomic
// load — instrumented hot paths call it per operation.
func Armed() bool { return armed.Load() > 0 }

// Counter is a monotonically increasing counter. The zero value is unusable
// on its own metrics surface — obtain counters from a Registry — but the
// methods work on any non-nil Counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as IEEE bits in
// one atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (atomically, CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency histogram: per-bucket atomic counts
// over ascending upper bounds plus a +Inf overflow bucket, a total count,
// and a CAS-maintained float64 sum. Observe allocates nothing, so armed
// hot paths can record into it directly.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, per-bucket (not cumulative)
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram creates a histogram over the given ascending upper bounds
// (the +Inf bucket is implicit; pass none for a count/sum-only histogram).
// It panics on unsorted or non-finite bounds — bucket layouts are static
// program configuration, not runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram bound %v is not finite", b))
		}
		if i > 0 && b <= own[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %v", b))
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Uint64, len(own)+1)}
}

// Observe records one value. It performs no allocation: a linear bucket
// scan (bucket sets are small), two atomic adds, and a CAS loop on the sum.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshotCumulative reads the per-bucket counts once and returns them as
// cumulative values plus their total. Deriving the total from the same
// reads (instead of h.count) makes an exported histogram internally
// consistent even while writers race the scrape: the +Inf bucket always
// equals the reported _count.
func (h *Histogram) snapshotCumulative(dst []uint64) (cumulative []uint64, total uint64) {
	dst = dst[:0]
	for i := range h.counts {
		total += h.counts[i].Load()
		dst = append(dst, total)
	}
	return dst, total
}

// Default bucket layouts, in seconds (histograms record seconds so the
// exposition follows the Prometheus base-unit convention).
var (
	// LatencyBuckets covers request-level latencies: 1µs to 2.5s.
	LatencyBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
	}
	// KernelBuckets covers per-kernel execution times: 100ns to 100ms.
	KernelBuckets = []float64{
		1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
	}
	// BatchBuckets covers coalesced batch sizes.
	BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
)
