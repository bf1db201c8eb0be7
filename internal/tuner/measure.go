package tuner

import (
	"sync/atomic"
	"time"
)

// Measured feedback: the analytical fitness surfaces in this package rank
// candidates without ever consulting the hardware. measure.go closes that
// loop — it times short best-of-N windows of a real compiled candidate;
// SelectTopK and
// SelectChainTopK name the analytical candidates worth spending those
// measurements on. The clock is stubbable (faultinject-style: an atomic arm with a zero-cost
// unarmed fast path) so CI can drive measured tuning deterministically.

// epoch anchors the real clock; differences of nowNs are monotonic.
var epoch = time.Now()

// fakeClock, when armed, replaces the wall clock for every measurement.
var fakeClock atomic.Pointer[func() int64]

// nowNs reads the measurement clock in nanoseconds.
func nowNs() int64 {
	if f := fakeClock.Load(); f != nil {
		return (*f)()
	}
	return int64(time.Since(epoch))
}

// SetClock replaces the measurement clock with fn (nanoseconds, must be
// non-decreasing). Tests and CI use it to make measured tuning
// deterministic; nil restores the wall clock. Like the faultinject hook
// points, the unarmed fast path is one atomic load.
func SetClock(fn func() int64) {
	if fn == nil {
		fakeClock.Store(nil)
		return
	}
	fakeClock.Store(&fn)
}

// ResetClock restores the wall clock.
func ResetClock() { SetClock(nil) }

// clockStubbed reports whether a fake measurement clock is armed. Measure
// consults it to skip iteration auto-scaling: synthetic time carries no
// signal, so scaling a window to a synthetic length would only burn real
// kernel executions without changing any measured value.
func clockStubbed() bool { return fakeClock.Load() != nil }

// StepClock returns a deterministic virtual clock advancing stepNs per
// reading — the stub CI installs via SetClock. Under it every candidate
// measures identically, so the search's tie-breaking (first candidate in
// enumeration order, which is the analytical prior's ranking) decides,
// and runs are reproducible.
func StepClock(stepNs int64) func() int64 {
	if stepNs < 1 {
		stepNs = 1
	}
	var t atomic.Int64
	return func() int64 { return t.Add(stepNs) }
}

// MeasureOptions sizes one measurement.
type MeasureOptions struct {
	// Window is the minimum timed-window length; iterations auto-scale
	// until one window reaches it. Zero means 2ms — long enough to
	// amortize timer overhead on micro kernels, short enough that a
	// budget of tens of candidates tunes in well under a second.
	Window time.Duration
	// Rounds is how many sized windows run; the best (minimum ns/op) is
	// kept, discarding scheduler noise. Zero means 3.
	Rounds int
	// MaxIters caps the per-window iteration count during auto-scaling.
	// Zero means 65536.
	MaxIters int
}

func (o MeasureOptions) withDefaults() MeasureOptions {
	if o.Window <= 0 {
		o.Window = 2 * time.Millisecond
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 1 << 16
	}
	return o
}

// Measure times run with the bench discipline shrunk to tuning budgets:
// one warm-up call, iterations scaled until a window reaches
// MeasureOptions.Window, then best-of-Rounds sized windows. It returns
// the winning window's ns per run.
func Measure(run func() error, o MeasureOptions) (nsPerOp int64, err error) {
	o = o.withDefaults()
	if err := run(); err != nil { // warm up: bind arenas, start pools
		return 0, err
	}
	iters := 1
	window := o.Window.Nanoseconds()
	var elapsed int64
	for {
		start := nowNs()
		for i := 0; i < iters; i++ {
			if err := run(); err != nil {
				return 0, err
			}
		}
		elapsed = nowNs() - start
		if elapsed >= window || iters >= o.MaxIters || clockStubbed() {
			break
		}
		scale := 4
		if elapsed > 0 {
			// Aim past the window in one step instead of quadrupling
			// blindly; the cap keeps a mis-ticking clock from exploding.
			if s := int(window/elapsed) + 1; s < scale {
				scale = s
			}
		}
		if scale < 2 {
			scale = 2
		}
		iters *= scale
		if iters > o.MaxIters {
			iters = o.MaxIters
		}
	}
	best := elapsed / int64(iters)
	for round := 1; round < o.Rounds; round++ {
		start := nowNs()
		for i := 0; i < iters; i++ {
			if err := run(); err != nil {
				return 0, err
			}
		}
		if ns := (nowNs() - start) / int64(iters); ns < best {
			best = ns
		}
	}
	if best < 1 {
		best = 1
	}
	return best, nil
}
