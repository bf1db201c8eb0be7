package ops

import (
	"fmt"
	"math"

	"dnnfusion/internal/tensor"
)

// ReduceKind selects the reduction performed by a Reduce operator.
type ReduceKind int

const (
	ReduceSum ReduceKind = iota
	ReduceMean
	ReduceProd
	ReduceMax
	ReduceMin
)

var reduceNames = [...]string{"ReduceSum", "ReduceMean", "ReduceProd", "ReduceMax", "ReduceMin"}

func (k ReduceKind) String() string { return reduceNames[k] }

// NewReduce reduces along the given axes (Many-to-Many per Table 2). With
// keepDims the reduced axes remain as size-1 dimensions. Sum and Mean are
// linear, which licenses the paper's commutative-family rewrites
// (e.g. ReduceProd(Exp(A)) → Exp(ReduceSum(A))).
func NewReduce(kind ReduceKind, keepDims bool, axes ...int) Operator {
	return &reduce{kind: kind, keepDims: keepDims, axes: append([]int(nil), axes...)}
}

type reduce struct {
	kind     ReduceKind
	keepDims bool
	axes     []int
}

func (r *reduce) Type() string    { return r.kind.String() }
func (r *reduce) NumOutputs() int { return 1 }
func (r *reduce) AttrKey() string {
	return fmt.Sprintf("axes=%v,keep=%t", r.axes, r.keepDims)
}
func (r *reduce) Properties() Properties {
	if r.kind == ReduceSum || r.kind == ReduceMean {
		return Properties{Linear: true}
	}
	return Properties{}
}
func (r *reduce) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

// Kind returns the reduction kind.
func (r *reduce) Kind() ReduceKind { return r.kind }

// ReduceInfo extracts the reduction parameters of a Reduce operator; ok is
// false for other operators. The rewriter uses it to rebuild equivalent
// reductions (e.g. ReduceProd(Exp(A)) → Exp(ReduceSum(A))).
func ReduceInfo(op Operator) (kind ReduceKind, keepDims bool, axes []int, ok bool) {
	r, isReduce := op.(*reduce)
	if !isReduce {
		return 0, false, nil, false
	}
	return r.kind, r.keepDims, append([]int(nil), r.axes...), true
}

// resolveAxes marks the reduced dimensions of a rank-r input (all of them
// when no axes were given).
func (r *reduce) resolveAxes(rank int) ([]bool, error) {
	red := make([]bool, rank)
	if len(r.axes) == 0 {
		for i := range red {
			red[i] = true
		}
		return red, nil
	}
	for _, a := range r.axes {
		na, ok := tensor.NormalizeAxis(a, rank)
		if !ok {
			return nil, fmt.Errorf("%s: axis %d out of range for rank %d", r.Type(), a, rank)
		}
		red[na] = true
	}
	return red, nil
}

func (r *reduce) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 1 {
		return nil, errInputs(r.Type(), "1", len(in))
	}
	red, err := r.resolveAxes(in[0].Rank())
	if err != nil {
		return nil, err
	}
	out := make(tensor.Shape, 0, in[0].Rank())
	for i, d := range in[0] {
		if red[i] {
			if r.keepDims {
				out = append(out, 1)
			}
		} else {
			out = append(out, d)
		}
	}
	return []tensor.Shape{out}, nil
}

func (r *reduce) FLOPs(in []tensor.Shape) int64 {
	// One combine per input element (the paper's m*n convention for a
	// reduction over an m×n input).
	return int64(in[0].NumElements())
}

func (r *reduce) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("%s: output %d out of range", r.Type(), outNo)
	}
	if len(ins) != 1 {
		return nil, errInputs(r.Type(), "1", len(ins))
	}
	inShape := ins[0].Shape()
	red, err := r.resolveAxes(inShape.Rank())
	if err != nil {
		return nil, err
	}
	outs, err := r.InferShapes([]tensor.Shape{inShape})
	if err != nil {
		return nil, err
	}
	var redAxes []int
	count := 1
	for i, d := range inShape {
		if red[i] {
			redAxes = append(redAxes, i)
			count *= d
		}
	}
	mk := func(ins []Source) Source {
		return &reduceSource{
			op:      r,
			shape:   outs[0],
			in:      ins[0],
			inShape: inShape,
			red:     red,
			redAxes: redAxes,
			count:   count,
			buf:     make([]int, inShape.Rank()),
		}
	}
	// One contiguous group of reduced axes over a blocked input reduces
	// staged runs; scattered axes keep the pull model over a staged input.
	blk, isBlk := AsBlock(ins[0])
	if grouped := len(redAxes) == 0 || redAxes[len(redAxes)-1]-redAxes[0] == len(redAxes)-1; !isBlk || !grouped {
		return pulled(ins, mk), nil
	}
	inner := 1
	if len(redAxes) > 0 {
		inner = inShape[redAxes[len(redAxes)-1]+1:].NumElements()
	}
	src := &reduceBlockSource{reduceSource: *mk(ins).(*reduceSource), blk: blk, inner: inner, buf32: make([]float32, blockLen)}
	if inner > 1 {
		src.acc = make([]float64, blockLen)
	}
	return src, nil
}

type reduceSource struct {
	op      *reduce
	shape   tensor.Shape
	in      Source
	inShape tensor.Shape
	red     []bool
	redAxes []int
	// count is the reduced-element count, hoisted from Load.
	count int
	buf   []int
}

func (s *reduceSource) Shape() tensor.Shape { return s.shape }

// identity is the accumulator a reduction of this kind starts from.
func (k ReduceKind) identity() float64 {
	switch k {
	case ReduceProd:
		return 1
	case ReduceMax:
		return math.Inf(-1)
	case ReduceMin:
		return math.Inf(1)
	}
	return 0
}

// fold accumulates vals into acc in order, in float64.
func (k ReduceKind) fold(acc float64, vals []float32) float64 {
	switch k {
	case ReduceSum, ReduceMean:
		for _, v := range vals {
			acc += float64(v)
		}
	case ReduceProd:
		for _, v := range vals {
			acc *= float64(v)
		}
	case ReduceMax:
		for _, v := range vals {
			acc = math.Max(acc, float64(v))
		}
	case ReduceMin:
		for _, v := range vals {
			acc = math.Min(acc, float64(v))
		}
	}
	return acc
}

// foldColumns accumulates row element-wise into the column accumulators.
func (k ReduceKind) foldColumns(acc []float64, row []float32) {
	acc = acc[:len(row)]
	switch k {
	case ReduceSum, ReduceMean:
		for t, v := range row {
			acc[t] += float64(v)
		}
	case ReduceProd:
		for t, v := range row {
			acc[t] *= float64(v)
		}
	case ReduceMax:
		for t, v := range row {
			acc[t] = math.Max(acc[t], float64(v))
		}
	case ReduceMin:
		for t, v := range row {
			acc[t] = math.Min(acc[t], float64(v))
		}
	}
}

// finish turns the accumulator over count elements into the result.
func (k ReduceKind) finish(acc float64, count int) float32 {
	if k == ReduceMean {
		acc /= float64(count)
	}
	return float32(acc)
}

func (s *reduceSource) Load(outIdx []int) float32 {
	// Scatter the kept output indices into the input index buffer; the
	// reduced axes start at zero and advance as an odometer, last axis
	// fastest — the row-major order of the reduced sub-tensor.
	j := 0
	for i, red := range s.red {
		if red {
			s.buf[i] = 0
			if s.op.keepDims {
				j++
			}
		} else {
			s.buf[i] = outIdx[j]
			j++
		}
	}
	kind := s.op.kind
	acc := kind.identity()
	var one [1]float32
	for n := 0; n < s.count; n++ {
		one[0] = s.in.Load(s.buf)
		acc = kind.fold(acc, one[:])
		for i := len(s.redAxes) - 1; i >= 0; i-- {
			a := s.redAxes[i]
			s.buf[a]++
			if s.buf[a] < s.inShape[a] {
				break
			}
			s.buf[a] = 0
		}
	}
	return kind.finish(acc, s.count)
}

// reduceBlockSource reduces one contiguous group of axes of a blocked
// input: the input is [outer, count, inner] in flat terms and output
// element (o, j) folds input elements (o, 0..count, j) in ascending order
// in float64 — the order and width of reduceSource.Load, so the result is
// bit-identical. Trailing axes (inner == 1) stage each output's contiguous
// run of count elements, several outputs per producer load; a middle or
// leading group accumulates the count input rows of the covered columns
// into float64 column accumulators. Either way the producer is pulled once
// per covered input element, in dense runs.
type reduceBlockSource struct {
	reduceSource
	blk   BlockSource
	inner int
	buf32 []float32
	acc   []float64
}

func (s *reduceBlockSource) LoadBlock(dst []float32, off, n int) {
	kind, count := s.op.kind, s.count
	if s.inner == 1 {
		for n > 0 {
			g := min(len(s.buf32)/count, n)
			if g == 0 {
				// A run longer than the staging buffer folds in stripes.
				acc := kind.identity()
				for r := 0; r < count; r += len(s.buf32) {
					stripe := s.buf32[:min(len(s.buf32), count-r)]
					s.blk.LoadBlock(stripe, off*count+r, len(stripe))
					acc = kind.fold(acc, stripe)
				}
				dst[0] = kind.finish(acc, count)
				g = 1
			} else {
				rows := s.buf32[:g*count]
				s.blk.LoadBlock(rows, off*count, len(rows))
				t := 0
				if kind == ReduceSum || kind == ReduceMean {
					// Four rows per pass, each in its own accumulator and
					// ascending order: four independent add chains, the
					// same sums as fold's.
					for ; t+4 <= g; t += 4 {
						r := rows[t*count : (t+4)*count]
						var a0, a1, a2, a3 float64
						for i, v := range r[:count] {
							a0 += float64(v)
							a1 += float64(r[count+i])
							a2 += float64(r[2*count+i])
							a3 += float64(r[3*count+i])
						}
						for q, a := range [4]float64{a0, a1, a2, a3} {
							dst[t+q] = kind.finish(a, count)
						}
					}
				}
				for ; t < g; t++ {
					dst[t] = kind.finish(kind.fold(kind.identity(), rows[t*count:(t+1)*count]), count)
				}
			}
			dst = dst[g:]
			off += g
			n -= g
		}
		return
	}
	inner := s.inner
	for n > 0 {
		j := off % inner
		w := min(inner-j, n, len(s.acc))
		acc, row := s.acc[:w], s.buf32[:w]
		for t := range acc {
			acc[t] = kind.identity()
		}
		base := off / inner * count * inner
		for r := 0; r < count; r++ {
			s.blk.LoadBlock(row, base+r*inner+j, w)
			kind.foldColumns(acc, row)
		}
		for t, a := range acc {
			dst[t] = kind.finish(a, count)
		}
		dst = dst[w:]
		off += w
		n -= w
	}
}

// NewCumSum computes the inclusive cumulative sum along axis (Many-to-Many).
func NewCumSum(axis int) Operator { return &cumsum{axis: axis} }

type cumsum struct{ axis int }

func (c *cumsum) Type() string                          { return "CumSum" }
func (c *cumsum) NumOutputs() int                       { return 1 }
func (c *cumsum) AttrKey() string                       { return fmt.Sprintf("axis=%d", c.axis) }
func (c *cumsum) Properties() Properties                { return Properties{Linear: true} }
func (c *cumsum) Mapping(in []tensor.Shape) MappingType { return ManyToMany }
func (c *cumsum) FLOPs(in []tensor.Shape) int64         { return int64(in[0].NumElements()) }
func (c *cumsum) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 1 {
		return nil, errInputs("CumSum", "1", len(in))
	}
	if _, ok := tensor.NormalizeAxis(c.axis, in[0].Rank()); !ok {
		return nil, fmt.Errorf("CumSum: axis %d out of range for %v", c.axis, in[0])
	}
	return []tensor.Shape{in[0].Clone()}, nil
}

func (c *cumsum) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 || len(ins) != 1 {
		return nil, errInputs("CumSum", "1", len(ins))
	}
	ax, ok := tensor.NormalizeAxis(c.axis, ins[0].Shape().Rank())
	if !ok {
		return nil, fmt.Errorf("CumSum: axis %d out of range for %v", c.axis, ins[0].Shape())
	}
	return pulled(ins, func(ins []Source) Source {
		return &cumsumSource{in: ins[0], axis: ax, buf: make([]int, ins[0].Shape().Rank())}
	}), nil
}

type cumsumSource struct {
	in   Source
	axis int
	buf  []int
}

func (s *cumsumSource) Shape() tensor.Shape { return s.in.Shape() }

func (s *cumsumSource) Load(idx []int) float32 {
	copy(s.buf, idx)
	var acc float64
	for i := 0; i <= idx[s.axis]; i++ {
		s.buf[s.axis] = i
		acc += float64(s.in.Load(s.buf))
	}
	return float32(acc)
}

// NewSoftmax computes softmax along axis with the usual max-subtraction for
// numerical stability (Many-to-Many). Over a row x with max m, each
// eᵢ = expDiff(xᵢ, m, expf(xᵢ − m)) is the float32 transcendental of Exp at
// the float32 difference, corrected for that difference's rounding. The sum
// of the eᵢ is float64 in ascending order, and yᵢ = float32(eᵢ/sum);
// LogSoftmax writes float32(xᵢ − m − log sum) from the same sum. A row whose
// sum is NaN writes the quiet NaN 0x7fc00000 throughout.
func NewSoftmax(axis int) Operator { return &softmax{axis: axis, log: false} }

// NewLogSoftmax computes log-softmax along axis.
func NewLogSoftmax(axis int) Operator { return &softmax{axis: axis, log: true} }

type softmax struct {
	axis int
	log  bool
}

func (s *softmax) Type() string {
	if s.log {
		return "LogSoftmax"
	}
	return "Softmax"
}
func (s *softmax) NumOutputs() int                       { return 1 }
func (s *softmax) AttrKey() string                       { return fmt.Sprintf("axis=%d", s.axis) }
func (s *softmax) Properties() Properties                { return Properties{} }
func (s *softmax) Mapping(in []tensor.Shape) MappingType { return ManyToMany }
func (s *softmax) FLOPs(in []tensor.Shape) int64 {
	// max pass + sub/exp + sum pass + div: ~4 ops per element.
	return 4 * int64(in[0].NumElements())
}

func (s *softmax) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 1 {
		return nil, errInputs(s.Type(), "1", len(in))
	}
	if _, ok := tensor.NormalizeAxis(s.axis, in[0].Rank()); !ok {
		return nil, fmt.Errorf("%s: axis %d out of range for %v", s.Type(), s.axis, in[0])
	}
	return []tensor.Shape{in[0].Clone()}, nil
}

func (s *softmax) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 || len(ins) != 1 {
		return nil, errInputs(s.Type(), "1", len(ins))
	}
	inShape := ins[0].Shape()
	ax, ok := tensor.NormalizeAxis(s.axis, inShape.Rank())
	if !ok {
		return nil, fmt.Errorf("%s: axis %d out of range for %v", s.Type(), s.axis, inShape)
	}
	mk := func(ins []Source) Source {
		return &softmaxSource{
			in: ins[0], shape: inShape, axis: ax, axisDim: inShape[ax],
			log: s.log, buf: make([]int, inShape.Rank()),
		}
	}
	// Row-wise fast path: softmax over the innermost axis of a blocked
	// input computes each contiguous row's max and sum once instead of
	// twice per element. Any other axis pulls from a staged input.
	if ax == inShape.Rank()-1 {
		if blk, ok := AsBlock(ins[0]); ok {
			return &softmaxBlockSource{
				softmaxSource: *mk(ins).(*softmaxSource),
				blk:           blk,
				rowBuf:        make([]float32, inShape[ax]),
				exps:          make([]float32, inShape[ax]),
			}, nil
		}
	}
	return pulled(ins, mk), nil
}

type softmaxSource struct {
	in    Source
	shape tensor.Shape
	axis  int
	// axisDim is the softmax-axis length, hoisted from Load.
	axisDim int
	log     bool
	buf     []int
}

func (s *softmaxSource) Shape() tensor.Shape { return s.shape }

// softmaxBlockSource streams innermost-axis softmax row by row: each
// contiguous input row is staged once into rowBuf, its max and exp-sum are
// computed once, and every covered element of the row is normalized from
// the staged values — versus the scalar path's two full row passes per
// element. The row's differences x−max are written to exps and
// exponentiated there in place by Exp's typed loop (the AVX2 routine over
// whole 8-lane groups, expf for the rest), once per element, then corrected
// by expDiff in the sum pass: Softmax divides those, LogSoftmax needs them
// only for the sum. The max, the exponentials and the sum order are
// softmaxSource.Load's, so results are bit-for-bit equal.
type softmaxBlockSource struct {
	softmaxSource
	blk    BlockSource
	rowBuf []float32
	exps   []float32 // one row of x−max, then of its exponentials
	// group is how many input rows one producer load stages (default 1).
	// ApplySchedule aligns it with a heavy producer's row tile, so a
	// matmul feeding this softmax is pulled in whole tiles instead of
	// tile-defeating single rows.
	group int
}

// expOp is the Exp operator whose typed loop exponentiates softmax rows.
var expOp = NewExp().(*pointwise)

// rowNaN is every output of a softmax row whose sum is NaN: a NaN input, or
// ±Inf − ±Inf in x − max. Every output of such a row is NaN anyway, and which
// payload a float64 sum of NaNs keeps depends on the operand order the
// compiler picks for each addition, so the row writes this one quiet NaN.
var rowNaN = math.Float32frombits(0x7fc00000)

func (s *softmaxBlockSource) LoadBlock(dst []float32, off, n int) {
	d := s.axisDim
	g := s.group
	if g < 1 {
		g = 1
	}
	span := g * d
	total := s.shape.NumElements()
	stagedLo := -1 // staging never survives a call: inputs change between runs
	for n > 0 {
		j := off % d
		rowStart := off - j
		gLo := rowStart - rowStart%span
		if gLo != stagedLo {
			gN := span
			if gLo+gN > total {
				gN = total - gLo
			}
			s.blk.LoadBlock(s.rowBuf[:gN], gLo, gN)
			stagedLo = gLo
		}
		row := s.rowBuf[rowStart-gLo : rowStart-gLo+d]
		run := d - j
		if run > n {
			run = n
		}
		mf := rowMax(row)
		e := s.exps[:d]
		for i, v := range row {
			e[i] = v - mf
		}
		pointwiseLoop(expOp, e, e, nil)
		var sum float64
		for i, v := range row {
			e[i] = expDiff(v, mf, e[i])
			sum += float64(e[i])
		}
		switch {
		case sum != sum:
			for t := range dst[:run] {
				dst[t] = rowNaN
			}
		case s.log:
			logSum := math.Log(sum)
			for t := 0; t < run; t++ {
				dst[t] = float32(float64(row[j+t]) - float64(mf) - logSum)
			}
		default:
			for t, v := range e[j : j+run] {
				dst[t] = float32(float64(v) / sum)
			}
		}
		dst = dst[run:]
		off += run
		n -= run
	}
}

// rowMax is the row's max compared in float32: float32 of the math.Max fold
// of softmaxSource.Load in every row the outputs can tell apart. A NaN makes
// the sum NaN and the row rowNaN whatever the max. A zero max may come out
// with the other sign when the row holds both, which both outputs hide:
// x − (±0) is x but for x = ±0, expf(±0) = 1, and with two e of 1 the
// log-sum is at least ln 2, so ±0 − ln sum is the same value.
func rowMax(row []float32) float32 {
	m := float32(math.Inf(-1))
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	return m
}

func (s *softmaxSource) Load(idx []int) float32 {
	n := s.axisDim
	copy(s.buf, idx)
	maxV := math.Inf(-1)
	for i := 0; i < n; i++ {
		s.buf[s.axis] = i
		maxV = math.Max(maxV, float64(s.in.Load(s.buf)))
	}
	mf := float32(maxV)
	var sum float64
	for i := 0; i < n; i++ {
		s.buf[s.axis] = i
		x := s.in.Load(s.buf)
		sum += float64(expDiff(x, mf, expf(x-mf)))
	}
	if sum != sum {
		return rowNaN
	}
	x := s.in.Load(idx)
	if s.log {
		return float32(float64(x) - maxV - math.Log(sum))
	}
	return float32(float64(expDiff(x, mf, expf(x-mf))) / sum)
}

// expDiff is e^(x−m) in float32 from e = expf(x − m), the exponential of the
// rounded float32 difference h: it scales e by 1 + lo, lo = (x − m) − h, the
// rounding error of h, which TwoSum recovers exactly in float32. Without it
// e is off by up to |x − m|·2⁻²⁴ relative: 65 ULP on TestSoftmaxAccuracy's
// logits of up to ±80, against 3 with it. Where lo is NaN (x = −Inf, whose e is 0, or a NaN, whose row is
// rowNaN anyway) e stands. The product is rounded by an explicit
// conversion, so no compiler contracts it into an FMA.
func expDiff(x, m, e float32) float32 {
	h := x - m
	bm := h - x
	lo := (x - (h - bm)) - (m + bm)
	if lo == lo {
		return e + float32(e*lo)
	}
	return e
}
