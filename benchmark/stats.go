package main

import (
	"math"
	"slices"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted
// ascending samples: the smallest sample with at least p% of the samples at
// or below it. NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	// p*n first: 90*100/100 is exactly 90 where 90/100*100 is not.
	return min(max(int(math.Ceil(p*float64(n)/100)), 1), n)
}

// median sorts a copy of xs and returns its nearest-rank median.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 50)
}

// lowSamples reports whether fewer than ten of n samples lie beyond the
// p-th percentile, the guide's floor for quoting that percentile.
func lowSamples(n int, p float64) bool {
	return n-rankOf(n, p) < 10
}

// window is one timed slice of a closed loop: the durations of the
// operations that succeeded in it, and the time from its start to the last
// of them completing. Where a scaler worked on it (calib.go), the durations
// and elapsed are scaled and rawSum is what the durations summed to before.
type window struct {
	elapsed time.Duration
	dur     []time.Duration
	rawSum  time.Duration
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMs returns the durations in milliseconds, ascending.
func (w *window) sortedMs() []float64 {
	ms := make([]float64, len(w.dur))
	for i, d := range w.dur {
		ms[i] = toMs(d)
	}
	slices.Sort(ms)
	return ms
}

// ratePerSec is completions per second of elapsed time.
func (w *window) ratePerSec() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.dur)) / w.elapsed.Seconds()
}

// sliced accumulates one phase's slices: per-slice percentiles and rates,
// the sample count and the summed sample time. The samples themselves are
// dropped slice by slice.
type sliced struct {
	p50, p90, p99, rate []float64
	samples             int
	sumMs, rawSumMs     float64
}

func (s *sliced) add(w *window) {
	sorted := w.sortedMs()
	s.p50 = append(s.p50, percentile(sorted, 50))
	s.p90 = append(s.p90, percentile(sorted, 90))
	s.p99 = append(s.p99, percentile(sorted, 99))
	s.rate = append(s.rate, w.ratePerSec())
	s.samples += len(sorted)
	for _, v := range sorted {
		s.sumMs += v
	}
	s.rawSumMs += toMs(w.rawSum)
}

// metric is the median over the slices of the slice's pct-th percentile.
// low_samples judges the pct-th percentile of one slice.
func (s *sliced) metric(perSlice []float64, pct float64) metricValue {
	return metricValue{
		Value: median(perSlice), Unit: "ms", Samples: s.samples,
		LowSamples: lowSamples(s.samples/max(len(perSlice), 1), pct),
	}
}

// worseBy is how much worse b is than a, as a share of a, for a metric whose
// better direction is "lower" or "higher". Negative means b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
