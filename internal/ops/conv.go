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
	out, _, err := c.outShape(in)
	if err != nil {
		return 0
	}
	// One multiply-add per output element per weight of its filter (w is
	// [M, C/g, K..]), plus the bias add.
	f := 2 * int64(out.NumElements()) * int64(in[1][1:].NumElements())
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

// blockedConv upgrades a conv source to the blocked contraction
// (contraction.go): per (image, group) the output is the GEMM
// W[M/g × K] · B[K × P] with K = C/g·Πkernel and P = ΠS_out, whose row-major
// order is the flat output order. A is the weight, its rows dense; B is a
// K × ColPanel panel packed from the input (implicit im2col: the matrix
// never exists outside that panel) or — for a 1×1 / stride-1 / pad-0 conv —
// the input itself, row stride P; the bias is an addend constant along each
// row. ok is false when the input or bias is lazy and too large to stage
// (a lazy weight arrives in row windows like any A).
func blockedConv(s *convSource) (Source, bool) {
	d := s.spatial
	k, p := s.cPerGroup*s.kernel, tensor.Shape(s.shape[2:]).NumElements()
	xStrides := s.xShape.Strides()
	c := &contraction{Source: s, m: s.mPerGroup, n: p, k: k, batch: tensor.Of(s.shape[0], s.a.Groups)}
	var ok bool
	if c.a, ok = denseOperand(s.w, true); !ok {
		return nil, false
	}
	c.a.rs, c.a.cs, c.a.batch = k, 1, []int{0, s.mPerGroup * k}
	if c.b, ok = denseOperand(s.x, false); !ok {
		return nil, false
	}
	c.b.rs, c.b.cs, c.b.batch = p, 1, []int{xStrides[0], s.cPerGroup * xStrides[1]}
	if s.bias != nil {
		if c.c, ok = denseOperand(s.bias, false); !ok {
			return nil, false
		}
		c.epi, c.alpha, c.beta = true, 1, 1
		c.c.rs, c.c.batch = 1, []int{0, s.mPerGroup}
	}
	for i := 0; i < d; i++ {
		if s.wShape[2+i] != 1 || s.a.Strides[i] != 1 || s.a.Pads[i] != 0 {
			c.im2col = newIm2col(s, xStrides)
			break
		}
	}
	return newContraction(c), true
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

// Load is the scalar oracle. A tap that falls into the padding multiplies
// its weight by zero rather than being skipped (ONNX pads with zeros), so a
// non-finite weight over a border pixel yields NaN on every path.
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
			padded := false
			for i := spatial - 1; i >= 0; i-- {
				k := rem % wShape[2+i]
				rem /= wShape[2+i]
				pos := idx[2+i]*s.a.Strides[i] - s.a.Pads[i] + k*s.a.Dilations[i]
				if pos < 0 || pos >= xShape[2+i] {
					padded = true
				}
				s.xBuf[2+i] = pos
				s.wBuf[2+i] = k
			}
			var xv float64
			if !padded {
				xv = float64(s.x.Load(s.xBuf))
			}
			acc += xv * float64(s.w.Load(s.wBuf))
		}
	}
	if s.bias != nil {
		s.bBuf[0] = m
		acc += float64(s.bias.Load(s.bBuf))
	}
	return float32(acc)
}

// im2col packs Conv's B panels: the conv's geometry plus, per kernel tap and
// spatial dim, the output range that reads inside the input. Padding is
// zero fill, and acc += 0·w leaves a float64 accumulator bit-identical, so
// every element sums in the oracle's ci-outer / tap-inner order.
type im2col struct {
	*convSource
	xStrides []int
	// taps[kp*spatial+i] places kernel tap kp along spatial dim i.
	taps []convTap
	oIdx []int
}

// newIm2col precomputes, for every kernel tap and spatial dim, the output
// coordinates that read inside the input.
func newIm2col(s *convSource, xStrides []int) *im2col {
	d := s.spatial
	p := &im2col{convSource: s, xStrides: xStrides, taps: make([]convTap, s.kernel*d), oIdx: make([]int, d)}
	for kp := 0; kp < s.kernel; kp++ {
		rem := kp
		for i := d - 1; i >= 0; i-- {
			off := rem%s.wShape[2+i]*s.a.Dilations[i] - s.a.Pads[i]
			rem /= s.wShape[2+i]
			// The output coordinates o with 0 <= o·stride + off < the input
			// dim: everything outside reads padding.
			st, lo, hi := s.a.Strides[i], 0, 0
			if off < 0 {
				lo = (st - 1 - off) / st
			}
			if room := s.xShape[2+i] - off; room > 0 {
				hi = (room + st - 1) / st
			}
			p.taps[kp*d+i] = convTap{off: off, lo: lo, hi: hi}
		}
	}
	return p
}

// convTap is one kernel tap along one spatial dim: output coordinate o
// reads input position o·stride + off (off = tap·dilation − pad), which lies
// inside the input exactly for lo <= o < hi.
type convTap struct{ off, lo, hi int }

// pack fills the k × w panel (row stride w) with the im2col columns of
// output positions [j0, j0+w) of the image and group whose first channel
// starts at xBase. It walks the columns in innermost-output-row segments:
// within one, a tap reads a strided run of one input row, so a segment is a
// zero fill (padding), a copy (stride 1) or a strided gather.
func (s *im2col) pack(panel, xData []float32, xBase, j0, w int) {
	d := s.spatial
	last := d - 1
	outSp, xStr := s.shape[2:], s.xStrides[2:]
	o := outSp.Unravel(j0, s.oIdx)
	st, cStride := s.a.Strides[last], s.xStrides[1]
	for t0 := 0; t0 < w; {
		seg := min(outSp[last]-o[last], w-t0)
		for kp := 0; kp < s.kernel; kp++ {
			tap := s.taps[kp*d:][:d]
			// Outer spatial dims pick the input row; lo..hi are the segment
			// columns whose innermost position lands inside it.
			in := tap[last]
			lo := min(max(in.lo-o[last], 0), seg)
			hi := min(max(in.hi-o[last], lo), seg)
			base := xBase + (o[last]+lo)*st + in.off
			for i, oi := range o[:last] {
				if oi < tap[i].lo || oi >= tap[i].hi {
					lo, hi = 0, 0
					break
				}
				base += (oi*s.a.Strides[i] + tap[i].off) * xStr[i]
			}
			for ci := 0; ci < s.cPerGroup; ci++ {
				row := panel[(ci*s.kernel+kp)*w+t0:][:seg]
				clear(row[:lo])
				clear(row[hi:])
				switch {
				case lo == hi:
				case st == 1:
					copy(row[lo:hi], xData[base:])
				default:
					for t, b := lo, base; t < hi; t, b = t+1, b+st {
						row[t] = xData[b]
					}
				}
				base += cStride
			}
		}
		t0 += seg
		o[last] += seg
		for i := last; i > 0 && o[i] == outSp[i]; i-- {
			o[i] = 0
			o[i-1]++
		}
	}
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
	out, _, _, err := c.outShape(in)
	if err != nil {
		return 0
	}
	// Every input element contributes to each kernel position of its
	// group's M/g outputs (w is [C, M/g, K..]); the bias counts as Conv's.
	f := 2 * int64(in[0].NumElements()) * int64(in[1][1:].NumElements())
	if len(in) == 3 {
		f += int64(out.NumElements())
	}
	return f
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
