package ops

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// NewMatMul returns the batched matrix product with ONNX semantics: the last
// two dimensions are multiplied, leading (batch) dimensions broadcast.
// Many-to-Many per Table 2 (listed there as GEMM).
func NewMatMul() Operator { return &matmul{} }

// NewMatMulT returns a batched matrix product with transposed-operand
// flags: the last two dimensions of A and/or B are read swapped without
// materializing the transpose. The rewriter folds adjacent Transpose
// operators into these flags (the attention Q·Kᵀ pattern).
func NewMatMulT(transA, transB bool) Operator { return &matmul{transA: transA, transB: transB} }

type matmul struct {
	transA, transB bool
}

func (m *matmul) Type() string    { return "MatMul" }
func (m *matmul) NumOutputs() int { return 1 }
func (m *matmul) AttrKey() string {
	if !m.transA && !m.transB {
		return ""
	}
	return fmt.Sprintf("transA=%t,transB=%t", m.transA, m.transB)
}
func (m *matmul) Properties() Properties                { return Properties{Linear: true} }
func (m *matmul) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

// MatMulTrans reports the transpose flags of a MatMul operator.
func MatMulTrans(op Operator) (transA, transB, ok bool) {
	mm, isMM := op.(*matmul)
	if !isMM {
		return false, false, false
	}
	return mm.transA, mm.transB, true
}

func (m *matmul) dims(a, b tensor.Shape) (batch tensor.Shape, mm, kk, nn int, err error) {
	if a.Rank() < 2 || b.Rank() < 2 {
		return nil, 0, 0, 0, fmt.Errorf("MatMul: inputs must have rank >= 2, got %v and %v", a, b)
	}
	mm, kk = a[a.Rank()-2], a[a.Rank()-1]
	if m.transA {
		mm, kk = kk, mm
	}
	kb, nn := b[b.Rank()-2], b[b.Rank()-1]
	if m.transB {
		kb, nn = nn, kb
	}
	if kk != kb {
		return nil, 0, 0, 0, fmt.Errorf("MatMul: inner dims mismatch %v x %v", a, b)
	}
	batch, err = tensor.BroadcastShapes(a[:a.Rank()-2], b[:b.Rank()-2])
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("MatMul: batch dims: %w", err)
	}
	return batch, mm, kk, nn, nil
}

func matmulShapes(a, b tensor.Shape) (batch tensor.Shape, mm, kk, nn int, err error) {
	return (&matmul{}).dims(a, b)
}

func (m *matmul) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 2 {
		return nil, errInputs("MatMul", "2", len(in))
	}
	batch, mm, _, nn, err := m.dims(in[0], in[1])
	if err != nil {
		return nil, err
	}
	out := append(batch.Clone(), mm, nn)
	return []tensor.Shape{out}, nil
}

func (m *matmul) FLOPs(in []tensor.Shape) int64 {
	batch, mm, kk, nn, err := m.dims(in[0], in[1])
	if err != nil {
		return 0
	}
	return 2 * int64(batch.NumElements()) * int64(mm) * int64(kk) * int64(nn)
}

func (m *matmul) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("MatMul: output %d out of range", outNo)
	}
	if len(ins) != 2 {
		return nil, errInputs("MatMul", "2", len(ins))
	}
	a, b := ins[0].Shape(), ins[1].Shape()
	batch, mm, kk, nn, err := m.dims(a, b)
	if err != nil {
		return nil, err
	}
	out := append(batch.Clone(), mm, nn)
	return blockedMatMul(newMatmulSource(ins[0], ins[1], out, mm, kk, nn, m.transA, m.transB)), nil
}

// newMatmulSource is the scalar contraction over a and b that MatMul and
// Gemm both virtualize to; Gemm attaches its epilogue afterwards.
func newMatmulSource(a, b Source, out tensor.Shape, m, k, n int, transA, transB bool) *matmulSource {
	aShape, bShape := a.Shape(), b.Shape()
	return &matmulSource{
		shape:  out,
		a:      a,
		b:      b,
		aShape: aShape,
		bShape: bShape,
		ar:     aShape.Rank(),
		br:     bShape.Rank(),
		k:      k,
		m:      m,
		n:      n,
		transA: transA,
		transB: transB,
		aBuf:   make([]int, aShape.Rank()),
		bBuf:   make([]int, bShape.Rank()),
	}
}

// blockedMatMul upgrades the scalar contraction to the blocked contraction
// over its operands (contraction.go): A in place or in row windows, B in
// place or packed, a Gemm's addend as strided memory. Only an operand that
// has to be staged whole and is too large for it leaves the contraction on
// the pull model.
func blockedMatMul(s *matmulSource) Source {
	out := s.shape
	batch := out[:out.Rank()-2]
	c := &contraction{Source: s, m: s.m, n: s.n, k: s.k, batch: batch}
	var ok bool
	if c.b, ok = matOperand(s.b, s.transB, batch, false); !ok {
		return pulledMatMul(s)
	}
	if c.a, ok = matOperand(s.a, s.transA, batch, true); !ok {
		return pulledMatMul(s)
	}
	if e := s.epi; e != nil {
		c.epi, c.alpha, c.beta = true, e.alpha, e.beta
		if e.c != nil {
			op, l, ok := stridedOperand(e.c, false)
			if !ok {
				return pulledMatMul(s)
			}
			l = l.expand(tensor.Of(s.m, s.n))
			op.base, op.rs, op.cs = l.base, l.strides[0], l.strides[1]
			c.c = op
		}
	}
	return newContraction(c)
}

// pulledMatMul is the contraction over operands that cannot be read by
// stride: the pull model over whatever could be staged.
func pulledMatMul(s *matmulSource) Source {
	return pulled([]Source{s.a, s.b, s.epi.addend()}, func(ins []Source) Source {
		c := *s
		c.a, c.b = ins[0], ins[1]
		c.aBuf, c.bBuf = make([]int, s.ar), make([]int, s.br)
		if s.epi != nil {
			c.epi = s.epi.over(ins[2])
		}
		return &c
	})
}

type matmulSource struct {
	shape tensor.Shape
	a, b  Source
	// Operand shapes and ranks are hoisted to Virtualize time; Load must
	// never recompute them (it runs once per output element per K step on
	// the scalar path).
	aShape, bShape tensor.Shape
	ar, br         int
	k, m, n        int
	transA, transB bool
	aBuf           []int
	bBuf           []int
	// epi is Gemm's alpha/beta/C tail; nil for MatMul.
	epi *epilogue
}

// epilogue is the Gemm tail of the scalar contraction, alpha·acc + beta·C,
// applied to the float64 accumulator before the single rounding to float32;
// the blocked contraction applies the same arithmetic over a strided addend
// (contraction.finish), so Gemm stays bit-exact against this oracle.
// (Rewriting Gemm to MatMul+Add instead would round between the product and
// the addend.)
type epilogue struct {
	alpha, beta float64
	// c is the addend, broadcast against the [M, N] result; nil when the
	// Gemm has none. It is loaded with a scalar Load once per output element
	// (not per K step).
	c      Source
	cShape tensor.Shape
	cBuf   []int
	idx2   []int
}

// addend returns the C source of a possibly absent epilogue.
func (e *epilogue) addend() Source {
	if e == nil {
		return nil
	}
	return e.c
}

// over returns a copy of the epilogue reading its addend from c, with its
// own index scratch.
func (e *epilogue) over(c Source) *epilogue {
	out := *e
	out.c, out.cBuf, out.idx2 = c, make([]int, len(e.cBuf)), make([]int, 2)
	return &out
}

// apply finishes the accumulator of output element (i, j). Each product is
// rounded before the sum (the conversions forbid fusing them), so the
// blocked path's row loops (contraction.finish) reproduce it exactly.
func (e *epilogue) apply(acc float64, i, j int) float64 {
	acc = float64(acc * e.alpha)
	if e.c != nil {
		e.idx2[0], e.idx2[1] = i, j
		acc += float64(e.beta * float64(e.c.Load(tensor.BroadcastIndex(e.idx2, e.cShape, e.cBuf))))
	}
	return acc
}

func (s *matmulSource) Shape() tensor.Shape { return s.shape }

func (s *matmulSource) Load(idx []int) float32 {
	ar, br, or := s.ar, s.br, len(idx)
	// Broadcast the batch part of the output index into each input.
	for i := 0; i < ar-2; i++ {
		v := idx[or-ar+i]
		if s.aShape[i] == 1 {
			v = 0
		}
		s.aBuf[i] = v
	}
	for i := 0; i < br-2; i++ {
		v := idx[or-br+i]
		if s.bShape[i] == 1 {
			v = 0
		}
		s.bBuf[i] = v
	}
	var acc float64
	for k := 0; k < s.k; k++ {
		ai, aj := idx[or-2], k
		if s.transA {
			ai, aj = aj, ai
		}
		s.aBuf[ar-2], s.aBuf[ar-1] = ai, aj
		bi, bj := k, idx[or-1]
		if s.transB {
			bi, bj = bj, bi
		}
		s.bBuf[br-2], s.bBuf[br-1] = bi, bj
		acc += float64(s.a.Load(s.aBuf)) * float64(s.b.Load(s.bBuf))
	}
	if s.epi != nil {
		acc = s.epi.apply(acc, idx[or-2], idx[or-1])
	}
	return float32(acc)
}

// NewGemm returns the ONNX Gemm operator: alpha*op(A)*op(B) + beta*C where C
// broadcasts over the result. A and B must be rank 2.
func NewGemm(alpha, beta float32, transA, transB bool) Operator {
	return &gemm{alpha: alpha, beta: beta, transA: transA, transB: transB}
}

type gemm struct {
	alpha, beta    float32
	transA, transB bool
}

func (g *gemm) Type() string    { return "Gemm" }
func (g *gemm) NumOutputs() int { return 1 }
func (g *gemm) AttrKey() string {
	return fmt.Sprintf("alpha=%g,beta=%g,transA=%t,transB=%t", g.alpha, g.beta, g.transA, g.transB)
}
func (g *gemm) Properties() Properties                { return Properties{Linear: true} }
func (g *gemm) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

func (g *gemm) dims(in []tensor.Shape) (m, k, n int, err error) {
	a, b := in[0], in[1]
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, 0, fmt.Errorf("Gemm: A and B must be rank 2, got %v and %v", a, b)
	}
	m, k = a[0], a[1]
	if g.transA {
		m, k = k, m
	}
	kb, n := b[0], b[1]
	if g.transB {
		kb, n = n, kb
	}
	if k != kb {
		return 0, 0, 0, fmt.Errorf("Gemm: inner dims mismatch %v x %v", a, b)
	}
	return m, k, n, nil
}

func (g *gemm) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 2 && len(in) != 3 {
		return nil, errInputs("Gemm", "2 or 3", len(in))
	}
	m, _, n, err := g.dims(in)
	if err != nil {
		return nil, err
	}
	if len(in) == 3 {
		if _, err := tensor.BroadcastShapes(in[2], tensor.Of(m, n)); err != nil {
			return nil, fmt.Errorf("Gemm: C: %w", err)
		}
	}
	return []tensor.Shape{tensor.Of(m, n)}, nil
}

func (g *gemm) FLOPs(in []tensor.Shape) int64 {
	m, k, n, err := g.dims(in)
	if err != nil {
		return 0
	}
	f := 2 * int64(m) * int64(k) * int64(n)
	if len(in) == 3 {
		f += 2 * int64(m) * int64(n)
	}
	return f
}

func (g *gemm) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("Gemm: output %d out of range", outNo)
	}
	shapes := make([]tensor.Shape, len(ins))
	for i := range ins {
		shapes[i] = ins[i].Shape()
	}
	if _, err := g.InferShapes(shapes); err != nil {
		return nil, err
	}
	m, k, n, _ := g.dims(shapes)
	src := newMatmulSource(ins[0], ins[1], tensor.Of(m, n), m, k, n, g.transA, g.transB)
	if g.alpha != 1 || len(ins) == 3 {
		src.epi = &epilogue{alpha: float64(g.alpha), beta: float64(g.beta), idx2: make([]int, 2)}
		if len(ins) == 3 {
			src.epi.c = ins[2]
			src.epi.cShape = shapes[2]
			src.epi.cBuf = make([]int, shapes[2].Rank())
		}
	}
	return blockedMatMul(src), nil
}

// NewEinsum supports the two-operand einsum forms used by transformer
// attention ("bhqd,bhkd->bhqk" and "bhqk,bhkd->bhqd" style): each output
// label comes from one or both inputs, and labels present only in the inputs
// are contracted. Many-to-Many per Table 2.
func NewEinsum(spec string) Operator { return &einsum{spec: spec} }

type einsum struct{ spec string }

func (e *einsum) Type() string                          { return "Einsum" }
func (e *einsum) NumOutputs() int                       { return 1 }
func (e *einsum) AttrKey() string                       { return "spec=" + e.spec }
func (e *einsum) Properties() Properties                { return Properties{Linear: true} }
func (e *einsum) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

type einsumPlan struct {
	inLabels  [2]string
	outLabels string
	dims      map[byte]int
	contract  []byte
	outShape  tensor.Shape
}

func (e *einsum) plan(in []tensor.Shape) (*einsumPlan, error) {
	if len(in) != 2 {
		return nil, errInputs("Einsum", "2", len(in))
	}
	// Parse "ab,bc->ac".
	arrow := -1
	comma := -1
	for i := 0; i < len(e.spec); i++ {
		if e.spec[i] == ',' {
			comma = i
		}
		if e.spec[i] == '-' && i+1 < len(e.spec) && e.spec[i+1] == '>' {
			arrow = i
		}
	}
	if comma < 0 || arrow < 0 || comma > arrow {
		return nil, fmt.Errorf("Einsum: bad spec %q", e.spec)
	}
	p := &einsumPlan{}
	p.inLabels[0] = e.spec[:comma]
	p.inLabels[1] = e.spec[comma+1 : arrow]
	p.outLabels = e.spec[arrow+2:]
	p.dims = make(map[byte]int)
	for i, labels := range p.inLabels {
		if len(labels) != in[i].Rank() {
			return nil, fmt.Errorf("Einsum: labels %q do not match %v", labels, in[i])
		}
		for j := 0; j < len(labels); j++ {
			l := labels[j]
			if d, ok := p.dims[l]; ok && d != in[i][j] {
				return nil, fmt.Errorf("Einsum: dim mismatch for label %c", l)
			}
			p.dims[l] = in[i][j]
		}
	}
	inOut := make(map[byte]bool)
	for j := 0; j < len(p.outLabels); j++ {
		l := p.outLabels[j]
		if _, ok := p.dims[l]; !ok {
			return nil, fmt.Errorf("Einsum: output label %c not in inputs", l)
		}
		inOut[l] = true
		p.outShape = append(p.outShape, p.dims[l])
	}
	seen := map[byte]bool{}
	for _, labels := range p.inLabels {
		for j := 0; j < len(labels); j++ {
			l := labels[j]
			if !inOut[l] && !seen[l] {
				seen[l] = true
				p.contract = append(p.contract, l)
			}
		}
	}
	return p, nil
}

func (e *einsum) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	p, err := e.plan(in)
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{p.outShape}, nil
}

func (e *einsum) FLOPs(in []tensor.Shape) int64 {
	p, err := e.plan(in)
	if err != nil {
		return 0
	}
	c := int64(1)
	for _, l := range p.contract {
		c *= int64(p.dims[l])
	}
	return 2 * int64(p.outShape.NumElements()) * c
}

func (e *einsum) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("Einsum: output %d out of range", outNo)
	}
	shapes := []tensor.Shape{ins[0].Shape(), ins[1].Shape()}
	p, err := e.plan(shapes)
	if err != nil {
		return nil, err
	}
	total := 1
	for _, l := range p.contract {
		total *= p.dims[l]
	}
	return pulled(ins, func(ins []Source) Source {
		return &einsumSource{
			plan:          p,
			ins:           [2]Source{ins[0], ins[1]},
			bufs:          [2][]int{make([]int, shapes[0].Rank()), make([]int, shapes[1].Rank())},
			contractTotal: total,
		}
	}), nil
}

type einsumSource struct {
	plan *einsumPlan
	ins  [2]Source
	bufs [2][]int
	// contractTotal is the contracted iteration count, hoisted from Load.
	contractTotal int
	// assign holds the current value of every label (indexed by label
	// byte), replacing a per-Load map so fused Loads are allocation-free.
	assign [256]int
}

func (s *einsumSource) Shape() tensor.Shape { return s.plan.outShape }

func (s *einsumSource) Load(idx []int) float32 {
	p := s.plan
	assign := &s.assign
	for j := 0; j < len(p.outLabels); j++ {
		assign[p.outLabels[j]] = idx[j]
	}
	total := s.contractTotal
	var acc float64
	for n := 0; n < total; n++ {
		rem := n
		for i := len(p.contract) - 1; i >= 0; i-- {
			l := p.contract[i]
			assign[l] = rem % p.dims[l]
			rem /= p.dims[l]
		}
		prod := 1.0
		for i := 0; i < 2; i++ {
			labels := p.inLabels[i]
			buf := s.bufs[i]
			for j := 0; j < len(labels); j++ {
				buf[j] = assign[labels[j]]
			}
			prod *= float64(s.ins[i].Load(buf))
		}
		acc += prod
	}
	return float32(acc)
}
