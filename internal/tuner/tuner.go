// Package tuner implements the performance auto-tuners of the compilation
// pipeline. Figure 9b's instruments are the genetic-algorithm tuner
// DNNFusion inherits from PatDNN and a random-search tuner standing in for
// AutoTVM: both search abstract tile/unroll/vectorization parameters
// (Params) for a heavy kernel against a deterministic analytic response
// surface derived from the device profile, and the GA needs far fewer
// trials to reach the same quality — the compilation-time effect the figure
// reports. The executable kernels run no search: their schedule is a
// closed-form rule of the kernel's shape (select.go, ops.ScheduleFor).
package tuner

import (
	"math"
	"sort"

	"dnnfusion/internal/device"
)

// Params is one schedule configuration for a tiled heavy kernel.
type Params struct {
	TileM, TileN, TileK int
	Unroll              int // 1, 2, 4, 8
	Vectorize           bool
}

// Task describes the kernel being tuned.
type Task struct {
	M, N, K int // contraction dimensions (Conv is lowered to GEMM-shape)
	Device  *device.Device
}

// Fitness scores a configuration: achieved fraction of device peak in
// (0, 1]. The surface rewards tiles whose working set fits L1/L2, balanced
// tile aspect ratios, full unrolling of small remainders, and
// vectorization; it penalizes tiles that do not divide the problem.
// It is deterministic, so tuning results are reproducible.
func Fitness(t Task, p Params) float64 {
	if p.TileM <= 0 || p.TileN <= 0 || p.TileK <= 0 {
		return 0
	}
	// Working set of one tile (A, B, C panels) in bytes.
	ws := float64(p.TileM*p.TileK+p.TileK*p.TileN+p.TileM*p.TileN) * t.Device.BytesPerElem
	l1, l2 := t.Device.CacheBytes()
	cache := cacheScore(ws, l1, l2)
	// Divisibility: remainder loops hurt.
	divScore := rem(t.M, p.TileM) * rem(t.N, p.TileN) * rem(t.K, p.TileK)
	// Aspect: register-blocking prefers moderately square M×N tiles.
	aspect := float64(p.TileM) / float64(p.TileN)
	if aspect < 1 {
		aspect = 1 / aspect
	}
	aspectScore := 1 / (1 + 0.12*(aspect-1))
	// Unroll sweet spot at 4; vectorization is a flat bonus.
	unrollScore := 1 - 0.08*math.Abs(math.Log2(float64(p.Unroll))-2)
	vecScore := 0.8
	if p.Vectorize {
		vecScore = 1.0
	}
	return cache * divScore * aspectScore * unrollScore * vecScore
}

// cacheScore prices a tile working set against the L1/L2 capacities: a
// set that fills (but fits) L1 is ideal, an undersized one wastes reuse,
// L2-resident sets lose a step, and anything past L2 streams from DRAM.
func cacheScore(ws, l1, l2 float64) float64 {
	switch {
	case ws <= l1/2:
		return 0.75 + 0.25*(ws/(l1/2))
	case ws <= l1:
		return 1.0
	case ws <= l2:
		return 0.7
	default:
		return 0.35
	}
}

func rem(total, tile int) float64 {
	if tile > total {
		return 0.6
	}
	r := total % tile
	if r == 0 {
		return 1
	}
	return 1 - 0.3*float64(r)/float64(tile)
}

// Result reports a tuning run.
type Result struct {
	Best    Params
	Score   float64
	Trials  int
	History []float64 // best-so-far per generation/trial batch
}

// rng is a small deterministic xorshift generator so tuning is reproducible
// without math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

var tileChoices = []int{1, 2, 4, 8, 16, 32, 64, 128}
var unrollChoices = []int{1, 2, 4, 8}

func (r *rng) randomParams() Params {
	return Params{
		TileM:     tileChoices[r.intn(len(tileChoices))],
		TileN:     tileChoices[r.intn(len(tileChoices))],
		TileK:     tileChoices[r.intn(len(tileChoices))],
		Unroll:    unrollChoices[r.intn(len(unrollChoices))],
		Vectorize: r.intn(2) == 1,
	}
}

// GAOptions configures the genetic tuner.
type GAOptions struct {
	Population  int // default 16
	Generations int // default 12
	Elite       int // default 2
	MutationPct int // default 20 (percent per gene)
	Seed        uint64
}

func (o GAOptions) withDefaults() GAOptions {
	if o.Population == 0 {
		o.Population = 16
	}
	if o.Generations == 0 {
		o.Generations = 12
	}
	if o.Elite == 0 {
		o.Elite = 2
	}
	if o.MutationPct == 0 {
		o.MutationPct = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TuneGA runs the PatDNN-style genetic-algorithm tuner. Unlike AutoTVM's
// search it can start from an arbitrary number of chromosomes (§5.3) and
// converges in Population×Generations trials: each generation scores the
// population and tracks the best, sorts fitness-descending, carries the
// elite, then fills the next generation by tournament selection,
// crossover, and mutation.
func TuneGA(t Task, opts GAOptions) Result {
	opts = opts.withDefaults()
	r := newRNG(opts.Seed)
	pop := make([]Params, opts.Population)
	for i := range pop {
		pop[i] = r.randomParams()
	}
	type scored struct {
		p Params
		f float64
	}
	var res Result
	for gen := 0; gen < opts.Generations; gen++ {
		scoredPop := make([]scored, len(pop))
		for i, p := range pop {
			f := Fitness(t, p)
			scoredPop[i] = scored{p, f}
			res.Trials++
			if f > res.Score {
				res.Score, res.Best = f, p
			}
		}
		res.History = append(res.History, res.Score)
		// sort.Slice is unstable but deterministic for a given input, which
		// is what reproducibility needs.
		sort.Slice(scoredPop, func(i, j int) bool { return scoredPop[i].f > scoredPop[j].f })
		next := make([]Params, 0, len(pop))
		for i := 0; i < opts.Elite && i < len(scoredPop); i++ {
			next = append(next, scoredPop[i].p)
		}
		for len(next) < len(pop) {
			a := scoredPop[tournament(r, len(scoredPop))].p
			b := scoredPop[tournament(r, len(scoredPop))].p
			next = append(next, mutate(r, crossover(r, a, b), opts.MutationPct))
		}
		pop = next
	}
	return res
}

func tournament(r *rng, n int) int {
	a, b := r.intn(n), r.intn(n)
	if a < b { // scoredPop is sorted descending, lower index is fitter
		return a
	}
	return b
}

func crossover(r *rng, a, b Params) Params {
	pick := func(x, y int) int {
		if r.intn(2) == 0 {
			return x
		}
		return y
	}
	c := Params{
		TileM:  pick(a.TileM, b.TileM),
		TileN:  pick(a.TileN, b.TileN),
		TileK:  pick(a.TileK, b.TileK),
		Unroll: pick(a.Unroll, b.Unroll),
	}
	if r.intn(2) == 0 {
		c.Vectorize = a.Vectorize
	} else {
		c.Vectorize = b.Vectorize
	}
	return c
}

func mutate(r *rng, p Params, pct int) Params {
	maybe := func(cur int, choices []int) int {
		if r.intn(100) < pct {
			return choices[r.intn(len(choices))]
		}
		return cur
	}
	p.TileM = maybe(p.TileM, tileChoices)
	p.TileN = maybe(p.TileN, tileChoices)
	p.TileK = maybe(p.TileK, tileChoices)
	p.Unroll = maybe(p.Unroll, unrollChoices)
	if r.intn(100) < pct {
		p.Vectorize = !p.Vectorize
	}
	return p
}

// TuneRandom is the AutoTVM-like random search baseline: trials independent
// random configurations.
func TuneRandom(t Task, trials int, seed uint64) Result {
	r := newRNG(seed)
	res := Result{}
	for i := 0; i < trials; i++ {
		p := r.randomParams()
		s := Fitness(t, p)
		res.Trials++
		if s > res.Score {
			res.Score, res.Best = s, p
		}
		if (i+1)%16 == 0 {
			res.History = append(res.History, res.Score)
		}
	}
	return res
}
