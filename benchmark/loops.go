package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// tally counts operations against the number attempted. An operation fails
// on an error, a non-200 status, or a checked output outside tolerance.
type tally struct {
	attempted, failed int
	// firstFailure keeps one message so a failing run says why.
	firstFailure string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// retract turns an operation already counted as attempted into a failure:
// its output was checked after the window and found wrong.
func (t *tally) retract(format string, args ...any) {
	t.attempted--
	t.fail(format, args...)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// closedLoop is the traffic generator: clients goroutines each call
// op(client, n) back to back, the next call only after the previous one
// returned, until length has passed. Every client makes at least one call;
// length 0 makes exactly one. A sample is the wall time of one successful
// call; a call that returns an error is a failed operation and no sample.
//
// A lone client's samples are scaled by the calibrations it makes between
// calls (calib.go), while the server it waits for is idle. With more clients
// the samples stay wall time: every core is busy with the loop, so a burst
// would take a peer's place in the batch it is timing. The one such workload,
// head, spends 1.1 of its 1.4 ms waiting for a timer, which a slowed CPU
// does not lengthen: it slowed 1.05x where CPU-bound loops slowed 1.5x.
func closedLoop(clients int, length time.Duration, tr *tracer, spanName string, op func(client, n int) error) (*window, tally) {
	wins := make([]window, clients)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	var sc *scaler
	if clients == 1 {
		sc = newScaler(&wins[0])
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				start := time.Now()
				if n > 0 && start.Sub(t0) >= length {
					break
				}
				err := op(c, n)
				end := time.Now()
				if err != nil {
					tallies[c].fail("%s: %v", spanName, err)
					continue
				}
				tallies[c].ok()
				wins[c].dur = append(wins[c].dur, end.Sub(start))
				if tr != nil && n < maxSpansPerName {
					tr.record(spanName, -1, c<<24|n, start, end)
				}
				if sc != nil {
					sc.tick(end)
				} else {
					wins[c].elapsed = end.Sub(t0)
				}
			}
			if sc != nil {
				sc.flush(time.Now())
			}
		}(c)
	}
	wg.Wait()
	all := &window{}
	var t tally
	for c := range wins {
		if tr != nil {
			tr.skip(spanName, len(wins[c].dur)-maxSpansPerName)
		}
		all.dur = append(all.dur, wins[c].dur...)
		all.elapsed = max(all.elapsed, wins[c].elapsed)
		all.rawSum += wins[c].rawSum
		t.add(tallies[c])
	}
	return all, t
}

// phase is one timed loop of a pass, given share of the pass's seconds.
type phase struct {
	share float64
	run   func(length time.Duration) (*window, tally)
	sliced
}

// takeTurns runs every phase for one slice per round, n rounds over, with a
// collection before each slice so one phase's garbage is not collected
// during the next.
func takeTurns(n int, seconds float64, phases []*phase, t *tally) {
	for round := 0; round < n; round++ {
		for _, p := range phases {
			runtime.GC()
			win, pt := p.run(time.Duration(p.share * seconds / float64(n) * float64(time.Second)))
			t.add(pt)
			p.add(win)
		}
	}
}
