package ops

// Typed attribute accessors over the operator catalog. The ONNX exporter
// (internal/onnx) reconstructs each operator's ONNX attributes from these;
// they complement the generic Attr and the accessors that predate them
// (TransposePerm, MatMulTrans, ReduceInfo, BatchNormEps).

// ConvInfo extracts the attributes of a Conv or ConvTranspose.
func ConvInfo(op Operator) (attrs ConvAttrs, transposed, ok bool) {
	switch c := op.(type) {
	case *conv:
		return c.attrs, false, true
	case *convT:
		return c.attrs, true, true
	}
	return ConvAttrs{}, false, false
}

// PoolInfo extracts the attributes of a pooling operator.
func PoolInfo(op Operator) (attrs PoolAttrs, avg, global, ok bool) {
	p, isPool := op.(*pool)
	if !isPool {
		return PoolAttrs{}, false, false, false
	}
	return p.attrs, p.avg, p.global, true
}

// GemmInfo extracts the attributes of a Gemm.
func GemmInfo(op Operator) (alpha, beta float32, transA, transB, ok bool) {
	g, isGemm := op.(*gemm)
	if !isGemm {
		return 0, 0, false, false, false
	}
	return g.alpha, g.beta, g.transA, g.transB, true
}

// SoftmaxInfo extracts the axis of a Softmax or LogSoftmax.
func SoftmaxInfo(op Operator) (axis int, log, ok bool) {
	s, isSM := op.(*softmax)
	if !isSM {
		return 0, false, false
	}
	return s.axis, s.log, true
}

// GatherAxis extracts the axis of a Gather.
func GatherAxis(op Operator) (int, bool) {
	g, isGather := op.(*gather)
	if !isGather {
		return 0, false
	}
	return g.axis, true
}

// InstanceNormEps extracts the epsilon of an InstanceNormalization.
func InstanceNormEps(op Operator) (float32, bool) {
	n, isIN := op.(*instancenorm)
	if !isIN {
		return 0, false
	}
	return n.eps, true
}

// attrInt reads an int attribute stashed by a constructor.
func attrInt(op Operator, key string) (int, bool) {
	v, ok := Attr(op, key).(int)
	return v, ok
}

// attrInts reads an []int attribute stashed by a constructor.
func attrInts(op Operator, key string) ([]int, bool) {
	v, ok := Attr(op, key).([]int)
	return v, ok
}

// ScalarConst extracts the constant of AddConst, MulConst, or the
// scalar-exponent Pow (NewPowConst). kind is the operator Type().
func ScalarConst(op Operator) (kind string, c float32, ok bool) {
	p, isPW := op.(*pointwise)
	if !isPW {
		return "", 0, false
	}
	switch p.name {
	case "AddConst", "MulConst", "Pow":
		return p.name, p.c, true
	}
	return "", 0, false
}

// ClipRange extracts the [min, max] bounds of a Clip.
func ClipRange(op Operator) (min, max float32, ok bool) {
	p, isPW := op.(*pointwise)
	if !isPW || p.name != "Clip" {
		return 0, 0, false
	}
	return p.lo, p.hi, true
}

// LeakyReluAlpha extracts the negative slope of a LeakyRelu.
func LeakyReluAlpha(op Operator) (float32, bool) {
	p, isPW := op.(*pointwise)
	if !isPW || p.name != "LeakyRelu" {
		return 0, false
	}
	return p.c, true
}

// ReshapeTarget extracts a Reshape's target shape (may contain -1).
func ReshapeTarget(op Operator) ([]int, bool) {
	if op.Type() != "Reshape" {
		return nil, false
	}
	return attrInts(op, "shape")
}

// FlattenAxis extracts a Flatten's split axis.
func FlattenAxis(op Operator) (int, bool) {
	if op.Type() != "Flatten" {
		return 0, false
	}
	return attrInt(op, "axis")
}

// SqueezeAxes extracts a Squeeze's axes (empty slice = drop all size-1).
func SqueezeAxes(op Operator) ([]int, bool) {
	if op.Type() != "Squeeze" {
		return nil, false
	}
	return attrInts(op, "axes")
}

// UnsqueezeAxes extracts an Unsqueeze's inserted axes.
func UnsqueezeAxes(op Operator) ([]int, bool) {
	if op.Type() != "Unsqueeze" {
		return nil, false
	}
	return attrInts(op, "axes")
}

// SliceInfo extracts a Slice's per-axis ranges.
func SliceInfo(op Operator) (axes, starts, ends []int, ok bool) {
	if op.Type() != "Slice" {
		return nil, nil, nil, false
	}
	axes, ok1 := attrInts(op, "axes")
	starts, ok2 := attrInts(op, "starts")
	ends, ok3 := attrInts(op, "ends")
	return axes, starts, ends, ok1 && ok2 && ok3
}

// ConcatAxis extracts a Concat's axis.
func ConcatAxis(op Operator) (int, bool) {
	if op.Type() != "Concat" {
		return 0, false
	}
	return attrInt(op, "axis")
}

// SplitInfo extracts a Split's axis and output sizes.
func SplitInfo(op Operator) (axis int, sizes []int, ok bool) {
	if op.Type() != "Split" {
		return 0, nil, false
	}
	axis, ok1 := attrInt(op, "axis")
	sizes, ok2 := attrInts(op, "sizes")
	return axis, sizes, ok1 && ok2
}

// ExpandTarget extracts an Expand's broadcast target shape.
func ExpandTarget(op Operator) ([]int, bool) {
	if op.Type() != "Expand" {
		return nil, false
	}
	return attrInts(op, "shape")
}

// ResizeScales extracts the per-dimension integer scales of a Resize or
// Upsample.
func ResizeScales(op Operator) ([]int, bool) {
	if op.Type() != "Resize" && op.Type() != "Upsample" {
		return nil, false
	}
	return attrInts(op, "scales")
}

// BlockSize extracts the block size of DepthToSpace or SpaceToDepth.
func BlockSize(op Operator) (int, bool) {
	if op.Type() != "DepthToSpace" && op.Type() != "SpaceToDepth" {
		return 0, false
	}
	return attrInt(op, "block")
}
