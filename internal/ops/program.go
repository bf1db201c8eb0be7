package ops

import (
	"fmt"
	"math"
	"slices"

	"dnnfusion/internal/tensor"
)

// pointwiseProgram is the one blocked evaluator of pointwise work: the
// compiled form of a maximal subtree of pointwise operators that share one
// flat output order (§4.4, Figure 4: one loop nest per fused block, not one
// per operator). A pointwise operator virtualized over such a program inlines
// it instead of staging it, so the subtree is two flat lists:
//
//   - operands: the distinct non-pointwise inputs the subtree reads, each by
//     flat output offset — memory read in place, a lazy producer streamed
//     into one buffer, a broadcast, a scalar. An input two operators read is
//     one operand.
//   - instrs: the subtree's operators in topological order, each one loop
//     over a stripe of at most blockLen elements, reading operands and
//     registers and writing a register; the last writes the caller's dst. A
//     value two operators read (Mul(t, t), a diamond) is one instruction.
//
// Operands arrive at their producer's granularity — a tiled producer's whole
// tile span (stripe, set by ApplySchedule), everything else blockLen elements
// — but evaluation is always blockLen elements at a time, so however long the
// chain, its intermediates live in a few L1-resident registers assigned by
// liveness. Scratch is allocated for programs that run: a program that only
// ever serves as an inlined part of its consumer owns none.
//
// Every instruction performs the float32 operation of its operator's scalar
// function, one operation per loop (nothing for a compiler to contract into
// an FMA), so LoadBlock stays bit-identical to the embedded oracle's Load.
// On amd64 with AVX2 every typed loop but Identity's (Add, Sub, Mul, Div,
// Min, Max, Neg, Abs, Square, Reciprocal, Sqrt, Relu, Clip, LeakyRelu,
// AddConst, MulConst, Exp, Sigmoid, Tanh and Erf) runs its whole 8-element
// groups as assembly that performs the same float32 operations in the same
// order (pointwiseSIMD, pointwise_amd64.s); tails and generic ops run in Go.
type pointwiseProgram struct {
	pointwiseSource
	operands []pwOperand
	instrs   []pwInstr
	// stripe is the delivery granularity of tiled operands: blockLen by
	// default, rounded up by ApplySchedule to a whole number of a heavy
	// producer's tile spans so pulling it keeps the producer on its tiled
	// path. span is that producer tile span (0 when none), forwarded by
	// TileSpan.
	stripe, span int
	// numRegs registers of blockLen elements hold the intermediates; fnArity
	// is the widest fn(args) instruction. vals is the value table of the
	// block being evaluated: the operands' blocks, then the registers.
	numRegs, fnArity int
	vals             [][]float32
	fnArgs           []float32
}

// operandKind is how a program operand's elements reach a block.
type operandKind uint8

const (
	operandFlat     operandKind = iota // memory in the program's flat order: read in place
	operandStream                      // lazy producer in the program's flat order (through a stride-0 view for a non-suffix broadcast): pulled into buf
	operandPeriodic                    // suffix broadcast: the input's flat data repeats every period elements
	operandScalar                      // single element, splatted into buf
)

type pwOperand struct {
	kind operandKind
	// key is the operator input the operand stands for — its identity when
	// operand lists merge. src is what the blocked path actually reads, for
	// the tree walks: key itself when that is memory, else the stage, view or
	// producer standing in for it.
	key, src Source
	blk      BlockSource // stream, periodic
	data     []float32   // flat; periodic over flat memory
	period   int
	idx      []int // scalar: the all-zero index
	// tiled marks a stream delivered a whole stripe at a time.
	tiled bool
	buf   []float32
	// A scalar's buf holds filled copies of the value with bits valBits.
	valBits uint32
	filled  int
}

// pwInstr applies op to args and is the value of program by: the identity
// that lets a program inlined through two paths contribute each instruction
// once. An arg ≥ 0 is an earlier instruction, ^arg an operand; ins and out
// are the same as vals slots (out −1: the caller's dst).
type pwInstr struct {
	op   *pointwise
	by   *pointwiseProgram
	args []int
	ins  []int
	out  int
}

// newPointwiseProgram compiles operator op over the inputs of its oracle s.
// ok is false only when an input has no blocked path.
func newPointwiseProgram(op *pointwise, s *pointwiseSource) (*pointwiseProgram, bool) {
	p := &pointwiseProgram{pointwiseSource: *s, stripe: blockLen}
	args := make([]int, len(s.ins))
	for i, in := range s.ins {
		period, suffix := suffixPeriod(s.inShapes[i], s.shape)
		if q, isProg := in.(*pointwiseProgram); isProg && suffix && period == s.shape.NumElements() {
			args[i] = p.inline(q)
			continue
		}
		at := p.operandAt(in)
		if at < 0 {
			o, ok := newOperand(in, s.inShapes[i], s.shape)
			if !ok {
				return nil, false
			}
			at = len(p.operands)
			p.operands = append(p.operands, o)
		}
		args[i] = ^at
	}
	p.instrs = append(p.instrs, pwInstr{op: op, by: p, args: args})
	p.assignRegisters()
	return p, true
}

// operandAt returns the index of the operand standing for input key, or -1.
func (p *pointwiseProgram) operandAt(key Source) int {
	return slices.IndexFunc(p.operands, func(o pwOperand) bool { return o.key == key })
}

// newOperand resolves one operator input of shape inShape against the
// program's output shape: same-order inputs stream (memory in place),
// single-element inputs splat, suffix broadcasts (a [C] bias against [N,C])
// repeat periodically, and every other broadcast (a keepdims row statistic
// [N,1] against [N,C], a middle-axis expansion) streams through a stride-0
// view of the input, so a lazily produced statistic is loaded once per
// covered row.
func newOperand(in Source, inShape, out tensor.Shape) (pwOperand, bool) {
	o := pwOperand{key: in, src: in}
	if inShape.NumElements() == 1 {
		// A lazily produced scalar (a full reduction) is staged, so reading
		// it is a memory read.
		if blk, isBlk := AsBlock(in); isBlk && !randomAccess(in) {
			o.src = newStaged(blk)
		}
		o.kind, o.idx = operandScalar, make([]int, inShape.Rank())
		return o, true
	}
	period, ok := suffixPeriod(inShape, out)
	if !ok {
		backing, l := layoutOf(in)
		o.src, period = newView(backing, l.expand(out)), out.NumElements()
	}
	if o.blk, ok = AsBlock(o.src); !ok {
		return o, false
	}
	o.data, ok = FlatData(o.src)
	switch {
	case period < out.NumElements():
		o.kind, o.period = operandPeriodic, period
	case ok:
		o.kind = operandFlat
	default:
		o.kind = operandStream
	}
	return o, true
}

// inline merges program q — an input in p's own flat order — into p and
// returns the instruction that is q's value: q's operands join p's list and
// its instructions are appended, each unless p already has it.
func (p *pointwiseProgram) inline(q *pointwiseProgram) int {
	operandAt := make([]int, len(q.operands))
	for i, o := range q.operands {
		at := p.operandAt(o.key)
		if at < 0 {
			at = len(p.operands)
			p.operands = append(p.operands, pwOperand{
				kind: o.kind, key: o.key, src: o.src, blk: o.blk, data: o.data, period: o.period, idx: o.idx,
			})
		}
		operandAt[i] = at
	}
	instrAt := make([]int, len(q.instrs))
	for i, in := range q.instrs {
		at := slices.IndexFunc(p.instrs, func(have pwInstr) bool { return have.by == in.by })
		if at < 0 {
			args := make([]int, len(in.args))
			for t, a := range in.args {
				if a >= 0 {
					args[t] = instrAt[a]
				} else {
					args[t] = ^operandAt[^a]
				}
			}
			at = len(p.instrs)
			p.instrs = append(p.instrs, pwInstr{op: in.op, by: in.by, args: args})
		}
		instrAt[i] = at
	}
	return instrAt[len(instrAt)-1]
}

// assignRegisters gives every instruction but the last a register by
// liveness: a register is free again at the last instruction reading it, and
// that instruction may itself write it (every loop reads element j of its
// inputs before writing element j). A linear chain runs in one register.
func (p *pointwiseProgram) assignRegisters() {
	last := make([]int, len(p.instrs))
	for i, in := range p.instrs {
		for _, a := range in.args {
			if a >= 0 {
				last[a] = i
			}
		}
	}
	reg := make([]int, len(p.instrs))
	var free []int
	for i := range p.instrs {
		in := &p.instrs[i]
		in.ins = make([]int, len(in.args))
		for t, a := range in.args {
			if a < 0 {
				in.ins[t] = ^a
				continue
			}
			in.ins[t] = len(p.operands) + reg[a]
			if last[a] == i && !slices.Contains(in.args[:t], a) {
				free = append(free, reg[a])
			}
		}
		if in.op.fn1 == nil && in.op.fn2 == nil {
			p.fnArity = max(p.fnArity, len(in.args))
		}
		if i == len(p.instrs)-1 {
			in.out = -1
			break
		}
		if n := len(free); n > 0 {
			reg[i], free = free[n-1], free[:n-1]
		} else {
			reg[i] = p.numRegs
			p.numRegs++
		}
		in.out = len(p.operands) + reg[i]
	}
}

// bufLen is the length of the operand's delivery buffer.
func (o *pwOperand) bufLen(stripe int) int {
	switch {
	case o.kind == operandFlat:
		return 0
	case o.tiled:
		return stripe
	}
	return blockLen
}

// scratchBytes is the scratch the program holds once prepared.
func (p *pointwiseProgram) scratchBytes() int64 {
	n := p.numRegs*blockLen + p.fnArity
	for i := range p.operands {
		n += p.operands[i].bufLen(p.stripe)
	}
	return 4 * int64(n)
}

// String summarizes the program for compiler reports.
func (p *pointwiseProgram) String() string {
	return fmt.Sprintf("program: %d ops, %d operands, %d registers", len(p.instrs), len(p.operands), p.numRegs)
}

// align sets the delivery stripe to whole tile spans of the tiled producers
// streaming into the program: a fixed blockLen stripe would chop a tall tile
// into tile-defeating slivers. Called by ApplySchedule — at bind time, so
// this is also where a program that runs gets its scratch.
func (p *pointwiseProgram) align() {
	span := 0
	for _, producer := range p.streams() {
		span = max(span, TileSpan(producer))
	}
	if span > 0 && span <= maxStripeElems {
		p.span = span
		p.stripe = (blockLen + span - 1) / span * span
		for i := range p.operands {
			o := &p.operands[i]
			o.tiled = o.kind == operandStream && TileSpan(o.blk) > 0
		}
	}
	p.prepare()
}

// prepare sizes the operand buffers, the registers and the value table.
func (p *pointwiseProgram) prepare() {
	for i := range p.operands {
		o := &p.operands[i]
		o.buf = resize(o.buf, o.bufLen(p.stripe))
	}
	if p.vals == nil {
		p.vals = make([][]float32, len(p.operands)+p.numRegs)
		regs := make([]float32, p.numRegs*blockLen)
		for r := 0; r < p.numRegs; r++ {
			p.vals[len(p.operands)+r] = regs[r*blockLen : (r+1)*blockLen]
		}
		p.fnArgs = make([]float32, p.fnArity)
	}
}

// streams lists the lazy producers streaming into the program in its own
// flat order: what schedule alignment and contractionRooted look through.
func (p *pointwiseProgram) streams() []Source { return p.sources(operandStream) }

// scalars lists the sources the program reads with a scalar Load.
func (p *pointwiseProgram) scalars() []Source { return p.sources(operandScalar) }

func (p *pointwiseProgram) sources(kind operandKind) []Source {
	var out []Source
	for i := range p.operands {
		if o := &p.operands[i]; o.kind == kind {
			out = append(out, o.src)
		}
	}
	return out
}

func (p *pointwiseProgram) LoadBlock(dst []float32, off, n int) {
	if p.vals == nil {
		p.prepare()
	}
	for n > 0 {
		c := min(n, p.stripe)
		for i := range p.operands {
			if o := &p.operands[i]; o.tiled {
				o.blk.LoadBlock(o.buf[:c], off, c)
			}
		}
		for e := 0; e < c; e += blockLen {
			w := min(blockLen, c-e)
			for i := range p.operands {
				p.vals[i] = p.operands[i].block(off+e, e, w)
			}
			p.eval(dst[e : e+w])
		}
		dst = dst[c:]
		off += c
		n -= c
	}
}

// block returns elements [off, off+w) of the operand in the program's flat
// order; e is the offset of off within the delivered stripe.
func (o *pwOperand) block(off, e, w int) []float32 {
	switch o.kind {
	case operandFlat:
		return o.data[off : off+w]
	case operandStream:
		if o.tiled {
			return o.buf[e : e+w]
		}
		o.blk.LoadBlock(o.buf[:w], off, w)
	case operandPeriodic:
		if at := off % o.period; o.data != nil && at+w <= o.period {
			return o.data[at : at+w]
		}
		loadPeriodic(o.blk, o.buf[:w], off, o.period)
	case operandScalar:
		v := o.src.Load(o.idx)
		if bits := math.Float32bits(v); bits != o.valBits || o.filled < w {
			for j := range o.buf[:w] {
				o.buf[j] = v
			}
			o.valBits, o.filled = bits, w
		}
	}
	return o.buf[:w]
}

// eval runs the instruction list over one block of len(dst) ≤ blockLen
// elements whose operand blocks are in vals.
func (p *pointwiseProgram) eval(dst []float32) {
	vals := p.vals
	for i := range p.instrs {
		in := &p.instrs[i]
		d := dst
		if in.out >= 0 {
			d = vals[in.out][:len(dst)]
		}
		op := in.op
		a := vals[in.ins[0]][:len(d)]
		switch {
		case op.kind != kindGeneric:
			var b []float32
			if len(in.ins) > 1 {
				b = vals[in.ins[1]][:len(d)]
			}
			pointwiseLoop(op, d, a, b)
		case op.fn1 != nil:
			for j := range d {
				d[j] = op.fn1(a[j])
			}
		case op.fn2 != nil:
			b := vals[in.ins[1]][:len(d)]
			for j := range d {
				d[j] = op.fn2(a[j], b[j])
			}
		default:
			args := p.fnArgs[:len(in.ins)]
			for j := range d {
				for t, s := range in.ins {
					args[t] = vals[s][j]
				}
				d[j] = op.fn(args)
			}
		}
	}
}

// pointwiseLoop runs the typed loop of op, whose kind is not kindGeneric,
// over d: d[j] = op(a[j], b[j]), b nil for a unary op. The whole 8-element
// groups run as AVX2 assembly where the CPU has it (pointwiseSIMD), the rest
// in Go (pointwiseGo); both write the same bits.
func pointwiseLoop(op *pointwise, d, a, b []float32) {
	if j := pointwiseSIMD(op, d, a, b); j > 0 {
		d, a = d[j:], a[j:]
		if b != nil {
			b = b[j:]
		}
	}
	pointwiseGo(op, d, a, b)
}

// pointwiseGo is pointwiseLoop's Go loops: one loop per kind, each applying
// the operator's scalar function.
func pointwiseGo(op *pointwise, d, a, b []float32) {
	a = a[:len(d)]
	switch op.kind {
	case kindAdd:
		b := b[:len(d)]
		for j := range d {
			d[j] = a[j] + b[j]
		}
	case kindSub:
		b := b[:len(d)]
		for j := range d {
			d[j] = a[j] - b[j]
		}
	case kindMul:
		b := b[:len(d)]
		for j := range d {
			d[j] = a[j] * b[j]
		}
	case kindDiv:
		b := b[:len(d)]
		for j := range d {
			d[j] = a[j] / b[j]
		}
	case kindMin:
		b := b[:len(d)]
		for j := range d {
			d[j] = minf(a[j], b[j])
		}
	case kindMax:
		b := b[:len(d)]
		for j := range d {
			d[j] = maxf(a[j], b[j])
		}
	case kindNeg:
		for j := range d {
			d[j] = -a[j]
		}
	case kindRelu:
		for j := range d {
			d[j] = relu(a[j])
		}
	case kindAbs:
		for j := range d {
			d[j] = absf(a[j])
		}
	case kindSquare:
		for j := range d {
			d[j] = a[j] * a[j]
		}
	case kindReciprocal:
		for j := range d {
			d[j] = 1 / a[j]
		}
	case kindSqrt:
		for j := range d {
			d[j] = sqrtf(a[j])
		}
	case kindClip:
		lo, hi := op.lo, op.hi
		if math.Float32bits(lo) == 0 {
			// ReLU6: maxf(x, +0) is relu(x), bit for bit, without its
			// mispredicted branch.
			for j := range d {
				d[j] = minf(relu(a[j]), hi)
			}
			break
		}
		for j := range d {
			d[j] = minf(maxf(a[j], lo), hi)
		}
	case kindLeakyRelu:
		alpha := op.c
		for j := range d {
			x := a[j]
			if x < 0 {
				x = alpha * x
			}
			d[j] = x
		}
	case kindAddConst:
		c := op.c
		for j := range d {
			d[j] = a[j] + c
		}
	case kindMulConst:
		c := op.c
		for j := range d {
			d[j] = a[j] * c
		}
	case kindIdentity:
		copy(d, a)
	case kindExp:
		for j := range d {
			d[j] = expf(a[j])
		}
	case kindSigmoid:
		for j := range d {
			d[j] = sigmoid32(a[j])
		}
	case kindTanh:
		for j := range d {
			d[j] = tanh32(a[j])
		}
	case kindErf:
		for j := range d {
			d[j] = erf32(a[j])
		}
	}
}

// relu is maxf(x, 0) — x when x > 0, else +0, for NaN and −0 too — without
// the compare-and-branch maxf compiles to, which on sign-random data
// mispredicts every other element. x > 0 exactly when its bit pattern u lies
// in [1, 0x7f800000] (the positive subnormals up to +Inf), i.e. when
// u−1 < 0x7f800000 unsigned: the mask is the sign of that difference.
func relu(x float32) float32 {
	u := math.Float32bits(x)
	mask := uint32((int64(u-1) - 0x7f800000) >> 63)
	return math.Float32frombits(u & mask)
}
