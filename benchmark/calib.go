package main

import (
	"slices"
	"time"
)

// The box this benchmark runs on is a few cores of a shared host. For
// seconds to minutes at a time another tenant slows CPU-bound code here by
// 25-50%, shifting from one tenth of a second to the next, and no statistic
// taken inside a run removes that: over 25 minutes, ten 20 s runs of the
// same code spread (interquartile range ÷ median) 20-32% on Runner.Run,
// json.Unmarshal and Compile alike. So every timed loop interleaves its
// operations with bursts of a fixed piece of work of the benchmark's own,
// and divides each sample by how much longer than referenceBurst the bursts
// around it took. Over the same 25 minutes that brought the spread of the
// same quantities to 2-4% (Compile 6-8%). A reported time is therefore the
// time the operation takes on a box that runs the burst in referenceBurst;
// on the box this was written on, while quiet, that is wall time. See
// README.md, Noise.

const (
	// The burst is burstReps float32 matrix products of burstDim³, the inner
	// loop unrolled by hand eight times. Of the loops tried (a serial integer
	// chain, a serial and an 8-wide float sum, a digit parser, a 512 KB copy,
	// a 32 MB stride, the same product not unrolled), this one slowed in
	// step with convolution, pointwise kernels, JSON decoding and
	// compilation (1.37x and 1.42x where they slowed 1.36-1.44x); the serial
	// chains barely slowed and the wide sum slowed 1.7x. Unrolled, its time
	// does not depend on where the linker puts it: 375.4-375.8 us at three
	// alignments where the plain loop read 514, 544 and 637 us, which would
	// have moved every scaled metric of a later commit by as much.
	burstDim  = 48
	burstReps = 13
	// referenceBurst is the burst's time on the box this was written on, in
	// a quiet period. It only fixes the scale; any value compares two
	// commits on one box equally well.
	referenceBurst = 490 * time.Microsecond
	// calibEvery is the longest stretch of samples scaled by one pair of
	// calibrations. Scaled by bursts half a second away, the spread doubled.
	calibEvery = 50 * time.Millisecond
)

var burstA, burstB, burstC = burstOperand(0.5), burstOperand(0.25), make([]float32, burstDim*burstDim)

func burstOperand(v float32) []float32 {
	m := make([]float32, burstDim*burstDim)
	for i := range m {
		m[i] = v
	}
	return m
}

func burst() time.Duration {
	start := time.Now()
	clear(burstC)
	for r := 0; r < burstReps; r++ {
		for i := 0; i < burstDim; i++ {
			out := burstC[i*burstDim : (i+1)*burstDim]
			for k := 0; k < burstDim; k++ {
				a := burstA[i*burstDim+k]
				row := burstB[k*burstDim : (k+1)*burstDim]
				for j := 0; j+8 <= len(out) && j+8 <= len(row); j += 8 {
					o, w := out[j:j+8:j+8], row[j:j+8:j+8]
					o[0] += a * w[0]
					o[1] += a * w[1]
					o[2] += a * w[2]
					o[3] += a * w[3]
					o[4] += a * w[4]
					o[5] += a * w[5]
					o[6] += a * w[6]
					o[7] += a * w[7]
				}
			}
		}
	}
	return time.Since(start)
}

// slowness is how many times longer than referenceBurst a burst takes now:
// the median of three, so that one interrupted burst does not count.
func slowness() float64 {
	b := []time.Duration{burst(), burst(), burst()}
	slices.Sort(b)
	return float64(b[1]) / float64(referenceBurst)
}

// scaler divides the samples a timed loop appends to its window by the
// slowness around them. The loop calls tick between operations and flush
// when it ends. elapsed becomes the scaled time spent on operations, without
// the calibrations; rawSum keeps the samples' unscaled sum.
type scaler struct {
	win      *window
	from     int       // first sample not yet scaled
	prev     float64   // slowness at the last calibration
	segStart time.Time // when that calibration ended
}

func newScaler(win *window) *scaler {
	return &scaler{win: win, prev: slowness(), segStart: time.Now()}
}

// tick calibrates when calibEvery has passed since the last calibration.
func (s *scaler) tick(now time.Time) {
	if now.Sub(s.segStart) >= calibEvery {
		s.flush(now)
	}
}

// flush calibrates and scales the samples taken since the last calibration
// by the mean of the two.
func (s *scaler) flush(now time.Time) {
	cur := slowness()
	by := (s.prev + cur) / 2
	for i := s.from; i < len(s.win.dur); i++ {
		s.win.rawSum += s.win.dur[i]
		s.win.dur[i] = time.Duration(float64(s.win.dur[i]) / by)
	}
	s.win.elapsed += time.Duration(float64(now.Sub(s.segStart)) / by)
	s.from, s.prev, s.segStart = len(s.win.dur), cur, time.Now()
}
