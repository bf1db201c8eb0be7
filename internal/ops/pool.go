package ops

import (
	"fmt"
	"math"

	"dnnfusion/internal/tensor"
)

// PoolAttrs configures MaxPool and AveragePool; semantics match ConvAttrs.
type PoolAttrs struct {
	Kernel  []int
	Strides []int
	Pads    []int
}

// NewMaxPool returns the N-dimensional max pooling operator
// (Many-to-Many per Table 2).
func NewMaxPool(attrs PoolAttrs) Operator { return &pool{attrs: attrs, avg: false} }

// NewAveragePool returns the N-dimensional average pooling operator with
// count_include_pad=false semantics (padding excluded from the divisor).
func NewAveragePool(attrs PoolAttrs) Operator { return &pool{attrs: attrs, avg: true} }

// NewGlobalAveragePool averages over all spatial dimensions, keeping them as
// size-1 dims ([N, C, S..] → [N, C, 1..]).
func NewGlobalAveragePool() Operator { return &pool{global: true, avg: true} }

type pool struct {
	attrs  PoolAttrs
	avg    bool
	global bool
}

func (p *pool) Type() string {
	switch {
	case p.global:
		return "GlobalAveragePool"
	case p.avg:
		return "AveragePool"
	default:
		return "MaxPool"
	}
}
func (p *pool) NumOutputs() int { return 1 }
func (p *pool) AttrKey() string {
	if p.global {
		return ""
	}
	return fmt.Sprintf("k=%v,s=%v,p=%v", p.attrs.Kernel, p.attrs.Strides, p.attrs.Pads)
}
func (p *pool) Properties() Properties {
	if p.avg {
		return Properties{Linear: true}
	}
	return Properties{}
}
func (p *pool) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

func (p *pool) resolved(x tensor.Shape) (kernel, strides, pads []int, err error) {
	spatial := x.Rank() - 2
	if spatial < 1 {
		return nil, nil, nil, fmt.Errorf("%s: input %v must have spatial dims", p.Type(), x)
	}
	if p.global {
		kernel = append([]int(nil), x[2:]...)
		strides = make([]int, spatial)
		pads = make([]int, spatial)
		for i := range strides {
			strides[i] = 1
		}
		return kernel, strides, pads, nil
	}
	a := ConvAttrs{Strides: p.attrs.Strides, Pads: p.attrs.Pads}.normalized(spatial)
	kernel = ConvAttrs{Strides: p.attrs.Kernel}.normalized(spatial).Strides
	return kernel, a.Strides, a.Pads, nil
}

func (p *pool) outShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, errInputs(p.Type(), "1", len(in))
	}
	x := in[0]
	kernel, strides, pads, err := p.resolved(x)
	if err != nil {
		return nil, err
	}
	out := tensor.Shape{x[0], x[1]}
	for i := 0; i < x.Rank()-2; i++ {
		s := (x[2+i]+2*pads[i]-kernel[i])/strides[i] + 1
		if s <= 0 {
			return nil, fmt.Errorf("%s: non-positive output dim for %v", p.Type(), x)
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *pool) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	out, err := p.outShape(in)
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{out}, nil
}

func (p *pool) FLOPs(in []tensor.Shape) int64 {
	out, err := p.outShape(in)
	if err != nil {
		return 0
	}
	kernel, _, _, _ := p.resolved(in[0])
	k := int64(1)
	for _, d := range kernel {
		k *= int64(d)
	}
	return int64(out.NumElements()) * k
}

func (p *pool) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 || len(ins) != 1 {
		return nil, errInputs(p.Type(), "1", len(ins))
	}
	x := ins[0].Shape()
	out, err := p.outShape([]tensor.Shape{x})
	if err != nil {
		return nil, err
	}
	kernel, strides, pads, _ := p.resolved(x)
	mk := func(ins []Source) Source {
		src := &poolSource{
			shape:   out,
			in:      ins[0],
			avg:     p.avg,
			kernel:  kernel,
			strides: strides,
			pads:    pads,
			xShape:  x,
			spatial: x.Rank() - 2,
			buf:     make([]int, x.Rank()),
			total:   1,
		}
		for _, k := range kernel {
			src.total *= k
		}
		return src
	}
	// Flat window loops over an input that is flat or staged; the window
	// iteration order matches the scalar path, so results are bit-for-bit
	// equal. Only an input too large to stage keeps the pull model.
	xData, xStage, ok := denseOrStage(ins[0])
	if !ok {
		return pulled(ins, mk), nil
	}
	return &poolBlockSource{
		poolSource: *mk(ins).(*poolSource),
		xData:      xData,
		xStage:     xStage,
		xStrides:   x.Strides(),
		idxBuf:     make([]int, out.Rank()),
		lo:         make([]int, x.Rank()-2),
		hi:         make([]int, x.Rank()-2),
		at:         make([]int, x.Rank()-2),
	}, nil
}

type poolSource struct {
	shape   tensor.Shape
	in      Source
	avg     bool
	kernel  []int
	strides []int
	pads    []int
	// Shape and window size hoisted from Load to Virtualize time.
	xShape  tensor.Shape
	spatial int
	total   int
	buf     []int
}

func (s *poolSource) Shape() tensor.Shape { return s.shape }

func (s *poolSource) Load(idx []int) float32 {
	xShape := s.xShape
	spatial := s.spatial
	s.buf[0], s.buf[1] = idx[0], idx[1]
	total := s.total
	acc := math.Inf(-1)
	sum, count := 0.0, 0
	for kp := 0; kp < total; kp++ {
		rem := kp
		ok := true
		for i := spatial - 1; i >= 0; i-- {
			k := rem % s.kernel[i]
			rem /= s.kernel[i]
			pos := idx[2+i]*s.strides[i] - s.pads[i] + k
			if pos < 0 || pos >= xShape[2+i] {
				ok = false
				break
			}
			s.buf[2+i] = pos
		}
		if !ok {
			continue
		}
		v := float64(s.in.Load(s.buf))
		sum += v
		count++
		acc = math.Max(acc, v)
	}
	if s.avg {
		if count == 0 {
			return 0
		}
		return float32(sum / float64(count))
	}
	return float32(acc)
}

// poolBlockSource walks the requested output range with a row-major
// odometer and evaluates every window over the flat input slice: each
// spatial dim's window is clipped to the input once per output, and the
// clipped window walked with nested offsets, its innermost dim a contiguous
// run. The taps are the oracle's in-bounds taps in its ascending order, so
// the sum, the math.Max fold and the count are its own, bit for bit.
type poolBlockSource struct {
	poolSource
	xData    []float32
	xStage   *Staged
	xStrides []int
	idxBuf   []int
	// lo, hi and at are per spatial dim: the clipped window [lo, hi) and
	// the odometer over it.
	lo, hi, at []int
}

func (s *poolBlockSource) LoadBlock(dst []float32, off, n int) {
	xData := dense(s.xData, s.xStage)
	idx := s.idxBuf
	s.shape.Unravel(off, idx)
	for t := 0; t < n; t++ {
		dst[t] = s.eval(idx, xData)
		incIndex(s.shape, idx)
	}
}

func (s *poolBlockSource) eval(idx []int, xData []float32) float32 {
	base := idx[0]*s.xStrides[0] + idx[1]*s.xStrides[1]
	count := 1
	for i := 0; i < s.spatial; i++ {
		start := idx[2+i]*s.strides[i] - s.pads[i]
		s.lo[i], s.hi[i] = max(start, 0), min(start+s.kernel[i], s.xShape[2+i])
		count *= max(s.hi[i]-s.lo[i], 0)
		s.at[i] = s.lo[i]
		base += s.lo[i] * s.xStrides[2+i]
	}
	if count == 0 {
		if s.avg {
			return 0
		}
		return float32(math.Inf(-1))
	}
	last := s.spatial - 1
	run := s.hi[last] - s.lo[last]
	sum, acc := 0.0, math.Inf(-1)
	for off := base; ; {
		if s.avg {
			for _, v := range xData[off:][:run] {
				sum += float64(v)
			}
		} else {
			for _, v := range xData[off:][:run] {
				acc = math.Max(acc, float64(v))
			}
		}
		// The next run: the odometer over the outer dims.
		i := last - 1
		for ; i >= 0; i-- {
			off += s.xStrides[2+i]
			if s.at[i]++; s.at[i] < s.hi[i] {
				break
			}
			off -= (s.hi[i] - s.lo[i]) * s.xStrides[2+i]
			s.at[i] = s.lo[i]
		}
		if i < 0 {
			break
		}
	}
	if s.avg {
		return float32(sum / float64(count))
	}
	return float32(acc)
}
