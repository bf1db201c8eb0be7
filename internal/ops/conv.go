package ops

import (
	"fmt"

	"dnnfusion/internal/tensor"
)

// ConvAttrs configures Conv and ConvTranspose. Slices are per spatial
// dimension; nil means 1 (strides, dilations) or 0 (pads). Pads are
// symmetric (same padding at both ends of each spatial dimension).
type ConvAttrs struct {
	Strides   []int
	Pads      []int
	Dilations []int
	Groups    int
}

func (a ConvAttrs) normalized(spatial int) ConvAttrs {
	out := ConvAttrs{Groups: a.Groups}
	if out.Groups == 0 {
		out.Groups = 1
	}
	// fill expands a per-spatial-dim attribute: nil means the default for
	// every dimension, a single value replicates across dimensions.
	fill := func(src []int, def int) []int {
		dst := make([]int, spatial)
		for i := range dst {
			switch {
			case len(src) == 0:
				dst[i] = def
			case len(src) == 1:
				dst[i] = src[0]
			default:
				dst[i] = src[i]
			}
		}
		return dst
	}
	out.Strides = fill(a.Strides, 1)
	out.Pads = fill(a.Pads, 0)
	out.Dilations = fill(a.Dilations, 1)
	return out
}

func (a ConvAttrs) key() string {
	return fmt.Sprintf("s=%v,p=%v,d=%v,g=%d", a.Strides, a.Pads, a.Dilations, a.Groups)
}

// NewConv returns an N-dimensional convolution (2-D for CNNs, 3-D for the
// paper's C3D/S3D models). Input is [N, C, S1..Sk], weight is
// [M, C/groups, K1..Kk], and an optional third input is a bias of shape [M].
// Many-to-Many per Table 2.
func NewConv(attrs ConvAttrs) Operator { return &conv{attrs: attrs} }

type conv struct{ attrs ConvAttrs }

func (c *conv) Type() string                          { return "Conv" }
func (c *conv) NumOutputs() int                       { return 1 }
func (c *conv) AttrKey() string                       { return c.attrs.key() }
func (c *conv) Properties() Properties                { return Properties{Linear: true} }
func (c *conv) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

func (c *conv) outShape(in []tensor.Shape) (tensor.Shape, ConvAttrs, error) {
	if len(in) != 2 && len(in) != 3 {
		return nil, ConvAttrs{}, errInputs("Conv", "2 or 3", len(in))
	}
	x, w := in[0], in[1]
	if x.Rank() < 3 || w.Rank() != x.Rank() {
		return nil, ConvAttrs{}, fmt.Errorf("Conv: invalid ranks %v, %v", x, w)
	}
	spatial := x.Rank() - 2
	a := c.attrs.normalized(spatial)
	n, ch := x[0], x[1]
	m := w[0]
	if ch%a.Groups != 0 || m%a.Groups != 0 || w[1] != ch/a.Groups {
		return nil, ConvAttrs{}, fmt.Errorf("Conv: channel/group mismatch x=%v w=%v groups=%d", x, w, a.Groups)
	}
	if len(in) == 3 && !(in[2].Rank() == 1 && in[2][0] == m) {
		return nil, ConvAttrs{}, fmt.Errorf("Conv: bias shape %v does not match M=%d", in[2], m)
	}
	out := tensor.Shape{n, m}
	for i := 0; i < spatial; i++ {
		s := (x[2+i]+2*a.Pads[i]-a.Dilations[i]*(w[2+i]-1)-1)/a.Strides[i] + 1
		if s <= 0 {
			return nil, ConvAttrs{}, fmt.Errorf("Conv: non-positive output dim for x=%v w=%v %s", x, w, a.key())
		}
		out = append(out, s)
	}
	return out, a, nil
}

func (c *conv) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	out, _, err := c.outShape(in)
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{out}, nil
}

func (c *conv) FLOPs(in []tensor.Shape) int64 {
	out, a, err := c.outShape(in)
	if err != nil {
		return 0
	}
	w := in[1]
	kernel := int64(1)
	for i := 2; i < w.Rank(); i++ {
		kernel *= int64(w[i])
	}
	f := 2 * int64(out.NumElements()) * int64(in[0][1]/a.Groups) * kernel
	if len(in) == 3 {
		f += int64(out.NumElements())
	}
	return f
}

func (c *conv) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("Conv: output %d out of range", outNo)
	}
	shapes := make([]tensor.Shape, len(ins))
	for i := range ins {
		shapes[i] = ins[i].Shape()
	}
	out, a, err := c.outShape(shapes)
	if err != nil {
		return nil, err
	}
	mk := func(ins []Source) Source {
		src := &convSource{
			shape:     out,
			x:         ins[0],
			w:         ins[1],
			a:         a,
			xShape:    shapes[0],
			wShape:    shapes[1],
			spatial:   shapes[0].Rank() - 2,
			cPerGroup: shapes[0][1] / a.Groups,
			mPerGroup: shapes[1][0] / a.Groups,
			xBuf:      make([]int, shapes[0].Rank()),
			wBuf:      make([]int, shapes[1].Rank()),
			bBuf:      make([]int, 1),
		}
		src.kernel = 1
		for i := 0; i < src.spatial; i++ {
			src.kernel *= shapes[1][2+i]
		}
		if len(ins) == 3 {
			src.bias = ins[2]
		}
		return src
	}
	if blk, ok := blockedConv(mk(ins).(*convSource)); ok {
		return blk, nil
	}
	return pulled(ins, mk), nil
}

// blockedConv upgrades a conv source to flat inner loops over operands that
// are flat or staged (ok is false when one is lazy and too large to stage):
// the multiply-accumulate runs over raw slices with precomputed strides
// instead of virtual Loads through index buffers. Accumulation order
// matches the scalar path, so results are bit-for-bit equal.
func blockedConv(s *convSource) (Source, bool) {
	xData, xStage, ok := denseOrStage(s.x)
	if !ok {
		return nil, false
	}
	wData, wStage, ok := denseOrStage(s.w)
	if !ok {
		return nil, false
	}
	blk := &convBlockSource{
		convSource: *s,
		xData:      xData,
		wData:      wData,
		xStage:     xStage,
		wStage:     wStage,
		xStrides:   s.xShape.Strides(),
		wStrides:   s.wShape.Strides(),
		idxBuf:     make([]int, s.shape.Rank()),
	}
	if s.bias != nil {
		biasData, biasStage, ok := denseOrStage(s.bias)
		if !ok {
			return nil, false
		}
		blk.biasData = biasData
		blk.biasStage = biasStage
	}
	return blk, true
}

type convSource struct {
	shape tensor.Shape
	x, w  Source
	bias  Source
	a     ConvAttrs
	// Shapes and derived constants hoisted from Load to Virtualize time.
	xShape, wShape       tensor.Shape
	spatial              int
	cPerGroup, mPerGroup int
	kernel               int
	xBuf                 []int
	wBuf                 []int
	bBuf                 []int
}

func (s *convSource) Shape() tensor.Shape { return s.shape }

func (s *convSource) Load(idx []int) float32 {
	xShape, wShape := s.xShape, s.wShape
	spatial := s.spatial
	n, m := idx[0], idx[1]
	cPerGroup := s.cPerGroup
	group := m / s.mPerGroup
	s.xBuf[0] = n
	s.wBuf[0] = m
	kernel := s.kernel
	var acc float64
	for ci := 0; ci < cPerGroup; ci++ {
		s.xBuf[1] = group*cPerGroup + ci
		s.wBuf[1] = ci
		for kp := 0; kp < kernel; kp++ {
			rem := kp
			ok := true
			for i := spatial - 1; i >= 0; i-- {
				k := rem % wShape[2+i]
				rem /= wShape[2+i]
				pos := idx[2+i]*s.a.Strides[i] - s.a.Pads[i] + k*s.a.Dilations[i]
				if pos < 0 || pos >= xShape[2+i] {
					ok = false
					break
				}
				s.xBuf[2+i] = pos
				s.wBuf[2+i] = k
			}
			if !ok {
				continue
			}
			acc += float64(s.x.Load(s.xBuf)) * float64(s.w.Load(s.wBuf))
		}
	}
	if s.bias != nil {
		s.bBuf[0] = m
		acc += float64(s.bias.Load(s.bBuf))
	}
	return float32(acc)
}

// convBlockSource walks the requested output range with a row-major
// odometer and computes every element with flat multiply-accumulate loops
// over the operand slices.
type convBlockSource struct {
	convSource
	xData, wData, biasData    []float32
	xStage, wStage, biasStage *Staged
	xStrides, wStrides        []int
	idxBuf                    []int
}

func (s *convBlockSource) LoadBlock(dst []float32, off, n int) {
	xData, wData := dense(s.xData, s.xStage), dense(s.wData, s.wStage)
	var biasData []float32
	if s.bias != nil {
		biasData = dense(s.biasData, s.biasStage)
	}
	idx := s.idxBuf
	s.shape.Unravel(off, idx)
	for t := 0; t < n; t++ {
		dst[t] = s.eval(idx, xData, wData, biasData)
		incIndex(s.shape, idx)
	}
}

// eval is convSource.Load with every operand access lowered to flat
// slices; the ci-outer / kernel-position-inner loop order is identical.
func (s *convBlockSource) eval(idx []int, xData, wData, biasData []float32) float32 {
	n, m := idx[0], idx[1]
	group := m / s.mPerGroup
	xN := n * s.xStrides[0]
	wM := m * s.wStrides[0]
	var acc float64
	for ci := 0; ci < s.cPerGroup; ci++ {
		xBase := xN + (group*s.cPerGroup+ci)*s.xStrides[1]
		wBase := wM + ci*s.wStrides[1]
		for kp := 0; kp < s.kernel; kp++ {
			rem := kp
			ok := true
			xOff, wOff := xBase, wBase
			for i := s.spatial - 1; i >= 0; i-- {
				k := rem % s.wShape[2+i]
				rem /= s.wShape[2+i]
				pos := idx[2+i]*s.a.Strides[i] - s.a.Pads[i] + k*s.a.Dilations[i]
				if pos < 0 || pos >= s.xShape[2+i] {
					ok = false
					break
				}
				xOff += pos * s.xStrides[2+i]
				wOff += k * s.wStrides[2+i]
			}
			if !ok {
				continue
			}
			acc += float64(xData[xOff]) * float64(wData[wOff])
		}
	}
	if biasData != nil {
		acc += float64(biasData[m])
	}
	return float32(acc)
}

// NewConvTranspose returns the transposed (fractionally-strided) convolution
// used by the paper's U-Net. Input [N, C, S..], weight [C, M/groups, K..],
// optional bias [M]. Many-to-Many per Table 2.
func NewConvTranspose(attrs ConvAttrs) Operator { return &convT{attrs: attrs} }

type convT struct{ attrs ConvAttrs }

func (c *convT) Type() string                          { return "ConvTranspose" }
func (c *convT) NumOutputs() int                       { return 1 }
func (c *convT) AttrKey() string                       { return c.attrs.key() }
func (c *convT) Properties() Properties                { return Properties{Linear: true} }
func (c *convT) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

func (c *convT) outShape(in []tensor.Shape) (tensor.Shape, ConvAttrs, int, error) {
	if len(in) != 2 && len(in) != 3 {
		return nil, ConvAttrs{}, 0, errInputs("ConvTranspose", "2 or 3", len(in))
	}
	x, w := in[0], in[1]
	if x.Rank() < 3 || w.Rank() != x.Rank() {
		return nil, ConvAttrs{}, 0, fmt.Errorf("ConvTranspose: invalid ranks %v, %v", x, w)
	}
	spatial := x.Rank() - 2
	a := c.attrs.normalized(spatial)
	if x[1] != w[0] || x[1]%a.Groups != 0 {
		return nil, ConvAttrs{}, 0, fmt.Errorf("ConvTranspose: channel mismatch x=%v w=%v", x, w)
	}
	m := w[1] * a.Groups
	out := tensor.Shape{x[0], m}
	for i := 0; i < spatial; i++ {
		s := (x[2+i]-1)*a.Strides[i] - 2*a.Pads[i] + a.Dilations[i]*(w[2+i]-1) + 1
		if s <= 0 {
			return nil, ConvAttrs{}, 0, fmt.Errorf("ConvTranspose: non-positive output dim")
		}
		out = append(out, s)
	}
	return out, a, m, nil
}

func (c *convT) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	out, _, _, err := c.outShape(in)
	if err != nil {
		return nil, err
	}
	return []tensor.Shape{out}, nil
}

func (c *convT) FLOPs(in []tensor.Shape) int64 {
	_, a, _, err := c.outShape(in)
	if err != nil {
		return 0
	}
	w := in[1]
	kernel := int64(1)
	for i := 2; i < w.Rank(); i++ {
		kernel *= int64(w[i])
	}
	// Every input element contributes to kernel positions for M/g outputs.
	return 2 * int64(in[0].NumElements()) * int64(w[1]) * kernel / int64(a.Groups) * int64(a.Groups)
}

func (c *convT) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("ConvTranspose: output %d out of range", outNo)
	}
	shapes := make([]tensor.Shape, len(ins))
	for i := range ins {
		shapes[i] = ins[i].Shape()
	}
	out, a, _, err := c.outShape(shapes)
	if err != nil {
		return nil, err
	}
	return pulled(ins, func(ins []Source) Source {
		src := &convTSource{
			shape:     out,
			x:         ins[0],
			w:         ins[1],
			a:         a,
			xShape:    shapes[0],
			wShape:    shapes[1],
			spatial:   shapes[0].Rank() - 2,
			mPerGroup: shapes[1][1],
			cPerGroup: shapes[0][1] / a.Groups,
			xBuf:      make([]int, shapes[0].Rank()),
			wBuf:      make([]int, shapes[1].Rank()),
			bBuf:      make([]int, 1),
		}
		src.kernel = 1
		for i := 0; i < src.spatial; i++ {
			src.kernel *= shapes[1][2+i]
		}
		if len(ins) == 3 {
			src.bias = ins[2]
		}
		return src
	}), nil
}

type convTSource struct {
	shape tensor.Shape
	x, w  Source
	bias  Source
	a     ConvAttrs
	// Shapes and derived constants hoisted from Load to Virtualize time.
	xShape, wShape       tensor.Shape
	spatial              int
	mPerGroup, cPerGroup int
	kernel               int
	xBuf                 []int
	wBuf                 []int
	bBuf                 []int
}

func (s *convTSource) Shape() tensor.Shape { return s.shape }

func (s *convTSource) Load(idx []int) float32 {
	xShape, wShape := s.xShape, s.wShape
	spatial := s.spatial
	n, m := idx[0], idx[1]
	mPerGroup := s.mPerGroup
	group := m / mPerGroup
	cPerGroup := s.cPerGroup
	s.xBuf[0] = n
	s.wBuf[1] = m % mPerGroup
	kernel := s.kernel
	var acc float64
	for ci := 0; ci < cPerGroup; ci++ {
		c := group*cPerGroup + ci
		s.xBuf[1] = c
		s.wBuf[0] = c
		for kp := 0; kp < kernel; kp++ {
			rem := kp
			ok := true
			for i := spatial - 1; i >= 0; i-- {
				k := rem % wShape[2+i]
				rem /= wShape[2+i]
				num := idx[2+i] + s.a.Pads[i] - k*s.a.Dilations[i]
				if num < 0 || num%s.a.Strides[i] != 0 {
					ok = false
					break
				}
				pos := num / s.a.Strides[i]
				if pos >= xShape[2+i] {
					ok = false
					break
				}
				s.xBuf[2+i] = pos
				s.wBuf[2+i] = k
			}
			if !ok {
				continue
			}
			acc += float64(s.x.Load(s.xBuf)) * float64(s.w.Load(s.wBuf))
		}
	}
	if s.bias != nil {
		s.bBuf[0] = m
		acc += float64(s.bias.Load(s.bBuf))
	}
	return float32(acc)
}
