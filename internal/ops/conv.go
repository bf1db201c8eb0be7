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
// never exists outside that panel), the input itself, row stride P, for a
// 1×1 / stride-1 / pad-0 conv, or — for a 2-D depthwise conv (C/g = 1) — a
// float64 band of input rows the depthwise stencil reads; the bias is an
// addend constant along each row. ok is false when the input or bias is
// lazy and too large to stage (a lazy weight arrives in row windows like
// any A).
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
	if d == 2 && s.cPerGroup == 1 {
		c.dw = newDepthwise(s)
		return newContraction(c), true
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

// depthwise is the direct path of a 2-D Conv with one input channel per
// group (C/g = 1, any depth multiplier M/g), in place of an im2col panel
// and a one-row tile. Per column panel, fill widens the input rows the
// panel's outputs read into a float64 band once — padding stored as zero
// columns on both sides and zero rows outside the image, so no loop has a
// border case — and stencil runs each output channel's kh×kw taps over it.
// Taps sum ky-outer, kx-inner from +0, each product rounded on its own: the
// oracle's order and arithmetic, so the path is bit-exact, and a padded tap
// is a stored 0 times the weight (NaN for a non-finite one).
//
// A panel is whole output rows from a row start — the band holds every
// column those rows read — or part of one row, whose band holds only the
// columns that part reads: a panel that starts mid-row ends with its row.
type depthwise struct {
	h, w   int // input rows and columns
	ow     int // output columns
	kh, kw int
	sy, sx int // strides
	dy, dx int // dilations
	py, px int // pads
	// width is the band row length of whole output rows: every column they
	// read, from input column −px.
	width int
	// The band fill last left: its first output row, the whole-row band
	// column its first column is (it reads input column c0 − px), and its
	// row length.
	oy0, c0, bw int
}

func newDepthwise(s *convSource) *depthwise {
	a := s.a
	d := &depthwise{
		h: s.xShape[2], w: s.xShape[3], ow: s.shape[3],
		kh: s.wShape[2], kw: s.wShape[3],
		sy: a.Strides[0], sx: a.Strides[1],
		dy: a.Dilations[0], dx: a.Dilations[1],
		py: a.Pads[0], px: a.Pads[1],
	}
	d.width = d.extent(d.ow)
	return d
}

// bandRows is the number of input rows that n consecutive output rows read.
func (d *depthwise) bandRows(n int) int { return (n-1)*d.sy + (d.kh-1)*d.dy + 1 }

// extent is the number of band columns that n consecutive outputs of one
// row read.
func (d *depthwise) extent(n int) int { return (n-1)*d.sx + (d.kw-1)*d.dx + 1 }

// panel is how many of the n outputs from j0 one band serves: all of them
// from a row start, else the rest of the row at most.
func (d *depthwise) panel(j0, n int) int {
	if ox := j0 % d.ow; ox != 0 {
		return min(n, d.ow-ox)
	}
	return n
}

// bandElems is the largest band a column panel of jb outputs fills.
func (d *depthwise) bandElems(jb int) int {
	if jb < d.ow {
		return d.bandRows(1) * d.extent(jb)
	}
	return d.bandRows((jb+d.ow-1)/d.ow) * d.width
}

// maxCols is the widest column panel whose band holds at most elems floats:
// whole output rows while one row's band fits, else part of a row (at
// least one output).
func (d *depthwise) maxCols(elems int) int {
	if fit := elems / d.width; fit >= d.bandRows(1) {
		return ((fit-d.bandRows(1))/d.sy + 1) * d.ow
	}
	return max(1, (elems/d.bandRows(1)-d.extent(1))/d.sx+1)
}

// fill widens into band the input that outputs [j0, j0+n) — one panel —
// read, from the channel plane at x[xBase].
func (d *depthwise) fill(band []float64, x []float32, xBase, j0, n int) {
	oy0, ox := j0/d.ow, j0%d.ow
	rows := (ox+n-1)/d.ow + 1
	d.oy0, d.c0, d.bw = oy0, 0, d.width
	if rows == 1 {
		d.c0, d.bw = ox*d.sx, d.extent(n)
	}
	// Band columns [lo, hi) read input columns from c0+lo−px on.
	lo := min(max(d.px-d.c0, 0), d.bw)
	hi := min(max(d.px+d.w-d.c0, lo), d.bw)
	iy := oy0*d.sy - d.py
	for r := 0; r < d.bandRows(rows); r, iy = r+1, iy+1 {
		row := band[r*d.bw:][:d.bw]
		if iy < 0 || iy >= d.h {
			clear(row)
			continue
		}
		clear(row[:lo])
		if in := row[lo:hi]; len(in) > 0 {
			for t, v := range x[xBase+iy*d.w+d.c0+lo-d.px:][:len(in)] {
				in[t] = float64(v)
			}
		}
		clear(row[hi:])
	}
}

// stencil writes into acc the sums of outputs [j0, j0+len(acc)) — inside
// the panel fill last widened — of one output channel, whose kh×kw taps
// (ky-outer) are tap.
func (d *depthwise) stencil(acc []float64, tap []float32, band []float64, j0 int) {
	oy, ox := j0/d.ow, j0%d.ow
	for len(acc) > 0 {
		seg := min(d.ow-ox, len(acc))
		rows := band[(oy-d.oy0)*d.sy*d.bw+ox*d.sx-d.c0:]
		if d.kh == 3 && d.kw == 3 && d.dy == 1 && d.dx == 1 {
			stencil3x3(acc[:seg], tap[:9], rows, d.bw, d.sx)
		} else {
			d.stencilTaps(acc[:seg], tap, rows)
		}
		acc = acc[seg:]
		oy, ox = oy+1, 0
	}
}

// stencil3x3 is the 3×3, dilation-1 stencil over one output row segment
// whose first window's top-left tap is band[0] (band row length width):
// nine weights in registers, one accumulator per output.
func stencil3x3(out []float64, tap []float32, band []float64, width, sx int) {
	w0, w1, w2 := float64(tap[0]), float64(tap[1]), float64(tap[2])
	w3, w4, w5 := float64(tap[3]), float64(tap[4]), float64(tap[5])
	w6, w7, w8 := float64(tap[6]), float64(tap[7]), float64(tap[8])
	r0, r1, r2 := band, band[width:], band[2*width:]
	for t := range out {
		c := t * sx
		v := 0.0
		v += float64(w0 * r0[c])
		v += float64(w1 * r0[c+1])
		v += float64(w2 * r0[c+2])
		v += float64(w3 * r1[c])
		v += float64(w4 * r1[c+1])
		v += float64(w5 * r1[c+2])
		v += float64(w6 * r2[c])
		v += float64(w7 * r2[c+1])
		v += float64(w8 * r2[c+2])
		out[t] = v
	}
}

// stencilTaps is the generic kh×kw stencil over one output row segment
// whose first window's top-left tap is band[0], tap by tap across the
// segment (a contiguous run at stride 1): every accumulator still sums its
// taps ky-outer, kx-inner.
func (d *depthwise) stencilTaps(out []float64, tap []float32, band []float64) {
	clear(out)
	sx, n := d.sx, len(out)
	for ky := 0; ky < d.kh; ky++ {
		row := band[ky*d.dy*d.bw:]
		for kx := 0; kx < d.kw; kx++ {
			wv, src := float64(tap[ky*d.kw+kx]), row[kx*d.dx:][:(n-1)*sx+1]
			if sx == 1 {
				out := out[:len(src)]
				for t, x := range src {
					out[t] += float64(wv * x)
				}
				continue
			}
			for t := range out {
				out[t] += float64(wv * src[t*sx])
			}
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
