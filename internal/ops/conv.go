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
		// A channel group reads its four weight rows in place (a lazy
		// weight arrives one GEMM's row window at a time) and adds the bias
		// as finish does for alpha = beta = 1.
		c.dw = newDepthwise(s, c.a.pull == nil)
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
// border case — and the stencil runs each output channel's kh×kw taps over
// it. Taps sum ky-outer, kx-inner from +0, each product rounded on its own:
// the oracle's order and arithmetic, so the path is bit-exact, and a padded
// tap is a stored 0 times the weight (NaN for a non-finite one).
//
// The band is channel-interleaved: a channel group of four consecutive
// (image, group) GEMMs fills one band whose every position holds the four
// channels' inputs, [band row][band column][channel], and depthwise4 runs
// the four channels' stencils at once, one FMA per tap (simd). One GEMM
// alone — a remainder channel, a request that starts inside a group, a CPU
// or build without the assembly — fills a one-channel band of the same
// layout, and the Go loops read any channel of either band.
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
	// group is how many GEMMs one band interleaves at most: dwLanes where
	// depthwise4 runs, else 1.
	group int
	// width is the band row length of whole output rows: every column they
	// read, from input column −px.
	width int
	// The band fill last left: its first output row, the whole-row band
	// column its first column is (it reads input column c0 − px), its row
	// length in columns, and its channels per column.
	oy0, c0, bw, lanes int
}

// dwLanes is the channels of a depthwise channel group: four float64 lanes
// of a YMM register.
const dwLanes = 4

func newDepthwise(s *convSource, grouped bool) *depthwise {
	a := s.a
	d := &depthwise{
		h: s.xShape[2], w: s.xShape[3], ow: s.shape[3],
		kh: s.wShape[2], kw: s.wShape[3],
		sy: a.Strides[0], sx: a.Strides[1],
		dy: a.Dilations[0], dx: a.Dilations[1],
		py: a.Pads[0], px: a.Pads[1],
		group: 1,
	}
	if grouped && avx2FMA {
		d.group = dwLanes
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

// bandElems is the largest one-channel band a column panel of jb outputs
// fills; a channel group's band holds group times as many.
func (d *depthwise) bandElems(jb int) int {
	if jb < d.ow {
		return d.bandRows(1) * d.extent(jb)
	}
	return d.bandRows((jb+d.ow-1)/d.ow) * d.width
}

// maxCols is the widest column panel whose one-channel band holds at most
// elems floats: whole output rows while one row's band fits, else part of a
// row (at least one output).
func (d *depthwise) maxCols(elems int) int {
	if fit := elems / d.width; fit >= d.bandRows(1) {
		return ((fit-d.bandRows(1))/d.sy + 1) * d.ow
	}
	return max(1, (elems/d.bandRows(1)-d.extent(1))/d.sx+1)
}

// fill widens into band the input that outputs [j0, j0+n) — one panel —
// read, from the channel planes at x[planes[l]]: one plane, or a channel
// group's four interleaved.
func (d *depthwise) fill(band []float64, x []float32, planes []int, j0, n int) {
	oy0, ox := j0/d.ow, j0%d.ow
	rows := (ox+n-1)/d.ow + 1
	g := len(planes)
	d.oy0, d.c0, d.bw, d.lanes = oy0, 0, d.width, g
	if rows == 1 {
		d.c0, d.bw = ox*d.sx, d.extent(n)
	}
	// Band columns [lo, hi) read input columns from c0+lo−px on.
	lo := min(max(d.px-d.c0, 0), d.bw)
	hi := min(max(d.px+d.w-d.c0, lo), d.bw)
	iy := oy0*d.sy - d.py
	for r := 0; r < d.bandRows(rows); r, iy = r+1, iy+1 {
		row := band[r*d.bw*g:][:d.bw*g]
		if iy < 0 || iy >= d.h {
			clear(row)
			continue
		}
		clear(row[:lo*g])
		clear(row[hi*g:])
		in, at, m := row[lo*g:hi*g], iy*d.w+d.c0+lo-d.px, hi-lo
		switch {
		case m == 0:
		case g == 1:
			for t, v := range x[planes[0]+at:][:m] {
				in[t] = float64(v)
			}
		default:
			x0, x1 := x[planes[0]+at:][:m], x[planes[1]+at:][:m]
			x2, x3 := x[planes[2]+at:][:m], x[planes[3]+at:][:m]
			for t := interleaveSIMD(in, x0, x1, x2, x3); t < m; t++ {
				q := in[t*dwLanes:][:dwLanes]
				q[0], q[1], q[2], q[3] = float64(x0[t]), float64(x1[t]), float64(x2[t]), float64(x3[t])
			}
		}
	}
}

// interleaveSIMD widens the whole 4-column runs of the four planes x0…x3
// (of equal length) into dst, channel-interleaved, through interleave4
// where the CPU has AVX2, and returns how many columns it wrote. The last
// element of each slice is indexed first, so a short one is a Go bounds
// panic.
func interleaveSIMD(dst []float64, x0, x1, x2, x3 []float32) int {
	n := len(x0) &^ 3
	if !avx2FMA || n == 0 {
		return 0
	}
	_, _, _, _, _ = dst[dwLanes*n-1], x0[n-1], x1[n-1], x2[n-1], x3[n-1]
	interleave4(&dst[0], &x0[0], &x1[0], &x2[0], &x3[0], n)
	return n
}

// at is the offset in the band fill last widened of channel 0 of output
// j0's top-left tap.
func (d *depthwise) at(j0 int) int {
	oy, ox := j0/d.ow, j0%d.ow
	return ((oy-d.oy0)*d.sy*d.bw + ox*d.sx - d.c0) * d.lanes
}

// simd writes outputs [j0, j0+n) of a channel group — inside the panel fill
// last widened, four channels — through depthwise4: channel l to
// dst[l·plane:], its taps wts[t·4 + l] (ky-outer), its addend bias[l]. It
// reports false, having written garbage, when an accumulator was NaN: the
// Go loops then redo the group. The last band, weight and output element
// the routine touches are indexed here first, so a short slice is a Go
// bounds panic, not a stray access.
func (d *depthwise) simd(dst []float32, plane int, wts []float64, bias *[dwLanes]float64, band []float64, j0, n int) bool {
	const g = dwLanes
	last := d.at(j0+n-1) + ((d.kh-1)*d.dy*d.bw+(d.kw-1)*d.dx)*g + g - 1
	_, _, _ = band[last], wts[d.kh*d.kw*g-1], dst[(g-1)*plane+n-1]
	seg := min(d.ow-j0%d.ow, n)
	rowAdv := (d.sy*d.bw - d.ow*d.sx) * g
	return !depthwise4(&band[d.at(j0)], &wts[0], &bias[0], &dst[0], plane, d.kh, d.kw, d.dx*g, d.dy*d.bw*g, d.sx*g, rowAdv, seg, d.ow, n)
}

// loops writes into acc the sums of outputs [j0, j0+len(acc)) — inside the
// panel fill last widened — of one output channel, the band's channel
// band[0] is in, whose kh×kw taps (ky-outer) are tap.
func (d *depthwise) loops(acc []float64, tap []float32, band []float64, j0 int) {
	for len(acc) > 0 {
		seg := min(d.ow-j0%d.ow, len(acc))
		d.stencilTaps(acc[:seg], tap, band[d.at(j0):])
		acc = acc[seg:]
		j0 += seg
	}
}

// stencilTaps is the kh×kw stencil, any size, over one output row segment
// whose first window's top-left tap is band[0], tap by tap across the
// segment (a contiguous run at stride 1 in a one-channel band): every
// accumulator still sums its taps ky-outer, kx-inner.
func (d *depthwise) stencilTaps(out []float64, tap []float32, band []float64) {
	clear(out)
	g, n := d.lanes, len(out)
	sx := d.sx * g
	for ky := 0; ky < d.kh; ky++ {
		row := band[ky*d.dy*d.bw*g:]
		for kx := 0; kx < d.kw; kx++ {
			wv, src := float64(tap[ky*d.kw+kx]), row[kx*d.dx*g:][:(n-1)*sx+1]
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
