// Package bitsweep runs a test's body over float32 bit patterns: all 2³² of
// them, or a strided sample with dense windows at the edges the test names,
// spread over GOMAXPROCS goroutines. Only tests import it.
package bitsweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ranges are the patterns a sweep covers, as [from, to, step) triples over
// [0, 2³²): all of them when full, otherwise Sampled(edges...).
func Ranges(full bool, edges ...uint64) [][3]uint64 {
	if full {
		return [][3]uint64{{0, 1 << 32, 1}}
	}
	return Sampled(edges...)
}

// Sampled are every 251st pattern plus a dense window of 2¹⁶ patterns on
// each side of every edge given.
func Sampled(edges ...uint64) [][3]uint64 {
	ranges := [][3]uint64{{0, 1 << 32, 251}}
	for _, edge := range edges {
		ranges = append(ranges, [3]uint64{max(edge, 1<<16) - 1<<16, min(edge+1<<16, 1<<32), 1})
	}
	return ranges
}

// Parallel calls body over the ranges cut into chunks, the chunks spread
// over GOMAXPROCS goroutines; w in [0, GOMAXPROCS) names the calling
// goroutine, so body can keep per-goroutine results without locking.
func Parallel(ranges [][3]uint64, body func(w int, from, to, step uint64)) {
	type chunk struct{ from, to, step uint64 }
	var chunks []chunk
	for _, r := range ranges {
		size := r[2] << 22
		for from := r[0]; from < r[1]; from += size {
			chunks = append(chunks, chunk{from, min(from+size, r[1]), r[2]})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(chunks)); i = next.Add(1) - 1 {
				c := chunks[i]
				body(w, c.from, c.to, c.step)
			}
		}()
	}
	wg.Wait()
}
