package ops

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"dnnfusion/internal/bitsweep"
	"dnnfusion/internal/tensor"
)

// fullSweep reports whether a bit sweep covers all 2³² patterns: not under
// -short or the race detector, where it samples.
func fullSweep() bool { return !testing.Short() && !raceEnabled }

// TestBranchFreeRelu proves the one branch-free loop against the closure it
// replaces: relu(x) and maxf(x, 0) agree on the bits of every float32 — all
// 2³² patterns, or under -short and the race detector a strided sweep plus a
// dense window around every boundary of the case analysis (±0, the subnormal
// edge, ±Inf into the NaNs, the wrap) — and the typed loop applies exactly
// that function.
func TestBranchFreeRelu(t *testing.T) {
	var bad atomic.Int64
	bad.Store(-1)
	bitsweep.Parallel(bitsweep.Ranges(fullSweep(), 0, 0x00800000, 0x7f800000, 0x80000000, 0x80800000, 0xff800000, 1<<32), func(_ int, from, to, step uint64) {
		for u := from; u < to; u += step {
			if x := math.Float32frombits(uint32(u)); math.Float32bits(relu(x)) != math.Float32bits(maxf(x, 0)) {
				bad.CompareAndSwap(-1, int64(u))
				return
			}
		}
	})
	if u := bad.Load(); u >= 0 {
		x := math.Float32frombits(uint32(u))
		t.Fatalf("relu(%#08x) = %#08x, maxf(x, 0) = %#08x", u, math.Float32bits(relu(x)), math.Float32bits(maxf(x, 0)))
	}

	assertLoop(t, NewRelu().(*pointwise), []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff,
		0x80000000, 0x80000001, 0x807fffff, 0x80800000, 0xbf800000, 0xff7fffff, 0xff800000, 0xff800001, 0xffc00000, 0xffffffff})
}

// assertLoop checks the typed program loop of op against its closure, bit for
// bit, on the floats with the given bit patterns.
func assertLoop(t *testing.T, op *pointwise, patterns []uint32) {
	t.Helper()
	in := make([]float32, len(patterns))
	for i, u := range patterns {
		in[i] = math.Float32frombits(u)
	}
	blk, _ := AsBlock(virtualize(t, op, AsSource(tensor.FromSlice(in, len(in)))))
	got := make([]float32, len(in))
	blk.LoadBlock(got, 0, len(in))
	for i, x := range in {
		if want := op.fn1(x); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Errorf("%s loop(%#08x) = %#08x, closure says %#08x", op.name, patterns[i], math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}

// TestBranchFreeClip proves the ReLU6 loop — a Clip whose lower bound is +0
// runs minf(relu(x), hi) — against the closure, minf(maxf(x, 0), hi): the
// typed loop over every float32, bit for bit, for hi 6, 1 and +Inf (a strided
// sweep plus edge windows under -short and the race detector), and against the
// closure itself on the edge patterns.
func TestBranchFreeClip(t *testing.T) {
	const n = 1 << 14
	his := [3]float32{6, 1, float32(math.Inf(1))}
	edges := []uint64{0, 0x00800000, 0x3f800000, 0x40c00000, 0x7f800000, 0x80000000, 0x80800000, 0xff800000, 1 << 32}
	// Per goroutine, one program per hi over one input buffer, which the
	// programs read in place.
	type lane struct {
		in, got []float32
		blks    [len(his)]BlockSource
	}
	lanes := make([]lane, runtime.GOMAXPROCS(0))
	for w := range lanes {
		l := &lanes[w]
		l.in, l.got = make([]float32, n), make([]float32, n)
		for h, hi := range his {
			l.blks[h], _ = AsBlock(virtualize(t, NewClip(0, hi), AsSource(tensor.FromSlice(l.in, n))))
		}
	}
	var bad [len(his)]atomic.Int64
	for h := range bad {
		bad[h].Store(-1)
	}
	bitsweep.Parallel(bitsweep.Ranges(fullSweep(), edges...), func(w int, from, to, step uint64) {
		l := &lanes[w]
		for u := from; u < to; {
			m := 0
			for ; m < n && u < to; m, u = m+1, u+step {
				l.in[m] = math.Float32frombits(uint32(u))
			}
			for h, hi := range his {
				l.blks[h].LoadBlock(l.got[:m], 0, m)
				for i, x := range l.in[:m] {
					if math.Float32bits(l.got[i]) != math.Float32bits(minf(maxf(x, 0), hi)) {
						bad[h].CompareAndSwap(-1, int64(math.Float32bits(x)))
						break
					}
				}
			}
		}
	})
	var patterns []uint32
	for _, e := range edges[:len(edges)-1] {
		patterns = append(patterns, uint32(e), uint32(e)+1, uint32(e)-1)
	}
	for h, hi := range his {
		if u := bad[h].Load(); u >= 0 {
			x := math.Float32frombits(uint32(u))
			t.Errorf("Clip(0, %v) loop(%#08x) differs from minf(maxf(x, 0), hi) = %#08x", hi, u, math.Float32bits(minf(maxf(x, 0), hi)))
		}
		assertLoop(t, NewClip(0, hi).(*pointwise), patterns)
	}
}

// TestSharedOnce: a pointwise value with two pointwise references inside one
// program — Mul(t, t), the diamond Add(Relu(t), Neg(t)) — is one instruction,
// so its operator runs once per element of a LoadBlock, not once per
// reference.
func TestSharedOnce(t *testing.T) {
	const n = 3*blockLen + 17
	calls := 0
	count := newUnary("Count", kindGeneric, func(x float32) float32 { calls++; return x + 1 }, Properties{})
	x := randSource(200, n)
	for name, mk := range map[string]func(tv Source) Source{
		"Mul(t, t)": func(tv Source) Source { return virtualize(t, NewMul(), tv, tv) },
		"Add(Relu(t), Neg(t))": func(tv Source) Source {
			return virtualize(t, NewAdd(), virtualize(t, NewRelu(), tv), virtualize(t, NewNeg(), tv))
		},
	} {
		src := mk(virtualize(t, count, x))
		assertBlockParity(t, name, src)
		blk, _ := AsBlock(src)
		calls = 0
		blk.LoadBlock(make([]float32, n), 0, n)
		if calls != n {
			t.Errorf("%s: the shared value's operator ran %d times over %d elements, want once per element", name, calls, n)
		}
	}
}

// pointwiseCatalog is every pointwise operator constructor, by arity.
var pointwiseCatalog = map[int][]func() Operator{
	1: {NewRelu, NewAbs, NewNeg, NewExp, NewLog, NewSqrt, NewErf, NewSin, NewCos, NewAsin, NewTanh, NewCeil, NewFloor,
		NewRound, NewSquare, NewReciprocal, NewSigmoid, NewSoftplus, NewNot, NewIdentity, NewCast,
		func() Operator { return NewLeakyRelu(0.1) }, func() Operator { return NewClip(-0.5, 0.75) },
		func() Operator { return NewClip(0, 6) },
		func() Operator { return NewBitShift(-2) }, func() Operator { return NewPowConst(2) },
		func() Operator { return NewPowConst(1.5) }, func() Operator { return NewAddConst(0.25) },
		func() Operator { return NewMulConst(-3) }},
	2: {NewAdd, NewSub, NewMul, NewDiv, NewMin, NewMax, NewPow, NewGreater, NewEqual, NewPRelu},
	3: {NewWhere},
}

// specialSource is randSource with every 11th element replaced by a value
// arithmetic treats specially: NaN of both signs, ±Inf, −0, subnormals.
func specialSource(seed uint64, dims ...int) Source {
	x := tensor.New(dims...).Rand(seed)
	special := []uint32{0x7fc00000, 0xffc00000, 0x7f800000, 0xff800000, 0x80000000, 0x00000001, 0x807fffff, 0}
	for i := int(seed % 11); i < len(x.Data()); i += 11 {
		x.Data()[i] = math.Float32frombits(special[(i/11+int(seed))%len(special)])
	}
	return AsSource(x)
}

// TestProgramDifferential builds random pointwise DAGs — every pointwise
// operator, depth 1 to 12, diamonds and repeated operands, over every way an
// operand reaches a program: same-shape memory, a lazy stream over a MatMul
// and over a Conv under a random tile schedule, suffix, row-statistic and
// middle-axis broadcasts, scalars in memory and lazily produced — and checks
// LoadBlock over random unaligned ranges against the oracle's Load, bit for
// bit, on inputs seeded with NaNs of both signs, ±Inf, −0 and subnormals.
func TestProgramDifferential(t *testing.T) {
	type family struct {
		name string
		// full are the operands in the program's own flat order, bcast the
		// broadcast ones.
		leaves func(seed uint64) (full, bcast []Source)
	}
	families := []family{
		{"matmul [24 40]", func(seed uint64) (full, bcast []Source) {
			x, y := specialSource(seed, 24, 40), specialSource(seed+1, 24, 40)
			mm := virtualize(t, NewMatMul(), randSource(seed+2, 24, 9), specialSource(seed+3, 9, 40))
			full = []Source{x, y, mm, virtualize(t, NewSoftmax(-1), randSource(seed+4, 24, 40)), randSource(seed+5, 1, 24, 40)}
			bcast = []Source{
				specialSource(seed+6, 40), randSource(seed+7, 24, 1), randSource(seed+8, 1),
				AsSource(tensor.Scalar(1.5)),
				virtualize(t, NewReduce(ReduceMean, true, 1), randSource(seed+9, 24, 40)), // lazy [24 1]
				virtualize(t, NewReduce(ReduceMax, true), randSource(seed+10, 24, 40)),    // lazy scalar
			}
			return full, bcast
		}},
		{"conv [2 6 8 10]", func(seed uint64) (full, bcast []Source) {
			x := specialSource(seed, 2, 6, 8, 10)
			cv := virtualize(t, NewConv(ConvAttrs{Pads: []int{1, 1}, Groups: 2}),
				specialSource(seed+1, 2, 4, 8, 10), randSource(seed+2, 6, 2, 3, 3), randSource(seed+3, 6))
			full = []Source{x, cv, virtualize(t, NewTranspose(0, 1, 3, 2), randSource(seed+4, 2, 6, 10, 8))}
			bcast = []Source{
				specialSource(seed+5, 6, 1, 1), randSource(seed+6, 10), randSource(seed+7, 8, 10), randSource(seed+8, 2, 1, 1, 1),
				virtualize(t, NewSigmoid(), randSource(seed+9, 6, 1, 1)), // lazy middle-axis
				AsSource(tensor.Scalar(-0.5)),
			}
			return full, bcast
		}},
	}
	seen := map[string]bool{}
	for _, fam := range families {
		for seed := uint64(1); seed <= 40; seed++ {
			r := seed * 0x9E3779B97F4A7C15
			rnd := func(n int) int {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				return int(r % uint64(n))
			}
			full, bcast := fam.leaves(seed * 100)
			// cost[i] is the size of full[i] as the tree the oracle walks; it
			// bounds how much sharing a DAG may pile up.
			cost := make([]int, len(full))
			for i := range cost {
				cost[i] = 1
			}
			depth := 1 + rnd(12)
			var desc []string
			for d := 0; d < depth; d++ {
				arity := 1 + rnd(3)
				if arity == 3 && rnd(2) == 0 {
					arity = 2
				}
				mk := pointwiseCatalog[arity][rnd(len(pointwiseCatalog[arity]))]
				args, c := make([]Source, arity), 1
				// One argument in the program's own order — the newest value
				// more often than not, so chains grow deep — the rest anything.
				pin := rnd(arity)
				for i := range args {
					at := len(full) - 1 - rnd(min(3, len(full)))
					if i != pin && rnd(3) > 0 {
						at = rnd(len(full) + len(bcast))
					}
					if at < len(full) && c+cost[at] <= 400 {
						args[i], c = full[at], c+cost[at]
					} else {
						args[i] = bcast[rnd(len(bcast))]
					}
				}
				if args[pin].Shape().NumElements() != full[0].Shape().NumElements() {
					args[pin], c = full[0], c+1
				}
				op := mk()
				full, cost = append(full, virtualize(t, op, args...)), append(cost, c)
				desc = append(desc, op.Type())
				seen[op.Type()] = true
			}
			src := full[len(full)-1]
			prog, isProg := src.(*pointwiseProgram)
			if !isProg {
				t.Fatalf("%s seed %d: %v composed %T, want a program", fam.name, seed, desc, src)
			}
			ApplySchedule(src, Schedule{RowTile: 1 << rnd(4), ColPanel: 8 + rnd(40)})

			shape := src.Shape()
			n := shape.NumElements()
			idx := make([]int, shape.Rank())
			got := make([]float32, n)
			for pass := 0; pass < 5; pass++ {
				off := rnd(n)
				cnt := 1 + rnd(n-off)
				if pass == 0 {
					off, cnt = 0, n
				}
				for _, st := range StagedSources(src) {
					st.Invalidate()
				}
				prog.LoadBlock(got[:cnt], off, cnt)
				for j := 0; j < cnt; j += 1 + rnd(7) {
					want := src.Load(shape.Unravel(off+j, idx))
					if math.Float32bits(got[j]) != math.Float32bits(want) {
						t.Fatalf("%s seed %d: %v (%v) LoadBlock(%d, %d): element %d = %v (%#08x), oracle says %v (%#08x)",
							fam.name, seed, desc, prog, off, cnt, off+j, got[j], math.Float32bits(got[j]), want, math.Float32bits(want))
					}
				}
			}
		}
	}
	// The typed transcendental loops are among what the DAGs exercised.
	for _, name := range []string{"Exp", "Sigmoid", "Tanh", "Erf"} {
		if !seen[name] {
			t.Errorf("no DAG contains %s", name)
		}
	}
}

// TestPointwiseConstants: an operator's constants have one home — the typed
// fields its loop reads — and every accessor reports them from there.
func TestPointwiseConstants(t *testing.T) {
	if lo, hi, ok := ClipRange(NewClip(-1, 6)); !ok || lo != -1 || hi != 6 {
		t.Errorf("ClipRange = %v, %v, %v", lo, hi, ok)
	}
	if a, ok := LeakyReluAlpha(NewLeakyRelu(0.2)); !ok || a != 0.2 {
		t.Errorf("LeakyReluAlpha = %v, %v", a, ok)
	}
	for _, c := range []struct {
		op   Operator
		kind string
		c    float32
	}{{NewAddConst(3), "AddConst", 3}, {NewMulConst(-2), "MulConst", -2}, {NewPowConst(1.5), "Pow", 1.5}} {
		if kind, v, ok := ScalarConst(c.op); !ok || kind != c.kind || v != c.c {
			t.Errorf("ScalarConst(%s) = %v, %v, %v", c.kind, kind, v, ok)
		}
	}
	if _, _, ok := ScalarConst(NewRelu()); ok {
		t.Error("ScalarConst(Relu) reports a constant")
	}
	for _, c := range []struct {
		op   Operator
		key  string
		want any
	}{{NewClip(-1, 6), "max", float32(6)}, {NewLeakyRelu(0.2), "alpha", float32(0.2)}, {NewMulConst(-2), "c", float32(-2)},
		{NewPowConst(2), "p", float32(2)}, {NewBitShift(-3), "k", -3}, {NewRelu(), "c", nil}} {
		if got := Attr(c.op, c.key); got != c.want {
			t.Errorf("Attr(%s, %q) = %v, want %v", c.op.Type(), c.key, got, c.want)
		}
	}
}
