package ops

import (
	"fmt"
	"math"

	"dnnfusion/internal/tensor"
)

// NewBatchNormalization returns inference-mode batch normalization:
// y = scale*(x-mean)/sqrt(var+eps) + bias with per-channel parameters
// (inputs: X[N,C,..], scale[C], bias[C], mean[C], var[C]). The paper's
// Table 2 classifies it One-to-One: each output element depends on exactly
// one input element (the per-channel parameters are compile-time constants).
func NewBatchNormalization(eps float32) Operator { return &batchnorm{eps: eps} }

type batchnorm struct{ eps float32 }

// BatchNormEps extracts the epsilon of a BatchNormalization operator; ok is
// false for other operators. Used by the Conv+BatchNorm folding rewrite.
func BatchNormEps(op Operator) (float32, bool) {
	b, isBN := op.(*batchnorm)
	if !isBN {
		return 0, false
	}
	return b.eps, true
}

func (b *batchnorm) Type() string                          { return "BatchNormalization" }
func (b *batchnorm) NumOutputs() int                       { return 1 }
func (b *batchnorm) AttrKey() string                       { return fmt.Sprintf("eps=%g", b.eps) }
func (b *batchnorm) Properties() Properties                { return Properties{Linear: true} }
func (b *batchnorm) Mapping(in []tensor.Shape) MappingType { return OneToOne }

func (b *batchnorm) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 5 {
		return nil, errInputs("BatchNormalization", "5", len(in))
	}
	x := in[0]
	if x.Rank() < 2 {
		return nil, fmt.Errorf("BatchNormalization: input %v must have a channel dim", x)
	}
	c := x[1]
	for i := 1; i < 5; i++ {
		if in[i].Rank() != 1 || in[i][0] != c {
			return nil, fmt.Errorf("BatchNormalization: param %d shape %v, want [%d]", i, in[i], c)
		}
	}
	return []tensor.Shape{x.Clone()}, nil
}

func (b *batchnorm) FLOPs(in []tensor.Shape) int64 {
	// Folded into a per-channel multiply-add at inference: 2 per element.
	return 2 * int64(in[0].NumElements())
}

func (b *batchnorm) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("BatchNormalization: output %d out of range", outNo)
	}
	if len(ins) != 5 {
		return nil, errInputs("BatchNormalization", "5", len(ins))
	}
	return pulled(ins, func(ins []Source) Source {
		return &batchnormSource{
			x: ins[0], scale: ins[1], bias: ins[2], mean: ins[3], variance: ins[4],
			eps: b.eps, cBuf: make([]int, 1),
		}
	}), nil
}

type batchnormSource struct {
	x, scale, bias, mean, variance Source
	eps                            float32
	cBuf                           []int
}

func (s *batchnormSource) Shape() tensor.Shape { return s.x.Shape() }

func (s *batchnormSource) Load(idx []int) float32 {
	s.cBuf[0] = idx[1]
	m := float64(s.mean.Load(s.cBuf))
	v := float64(s.variance.Load(s.cBuf))
	sc := float64(s.scale.Load(s.cBuf))
	bi := float64(s.bias.Load(s.cBuf))
	x := float64(s.x.Load(idx))
	return float32(sc*(x-m)/math.Sqrt(v+float64(s.eps)) + bi)
}

// NewInstanceNormalization normalizes each (batch, channel) slice over its
// spatial dimensions: inputs X[N,C,S..], scale[C], bias[C].
// Many-to-Many per Table 2 (the mean/variance couple all spatial elements).
func NewInstanceNormalization(eps float32) Operator { return &instancenorm{eps: eps} }

type instancenorm struct{ eps float32 }

func (n *instancenorm) Type() string                          { return "InstanceNormalization" }
func (n *instancenorm) NumOutputs() int                       { return 1 }
func (n *instancenorm) AttrKey() string                       { return fmt.Sprintf("eps=%g", n.eps) }
func (n *instancenorm) Properties() Properties                { return Properties{} }
func (n *instancenorm) Mapping(in []tensor.Shape) MappingType { return ManyToMany }

func (n *instancenorm) InferShapes(in []tensor.Shape) ([]tensor.Shape, error) {
	if len(in) != 3 {
		return nil, errInputs("InstanceNormalization", "3", len(in))
	}
	x := in[0]
	if x.Rank() < 3 {
		return nil, fmt.Errorf("InstanceNormalization: input %v must have spatial dims", x)
	}
	for i := 1; i < 3; i++ {
		if in[i].Rank() != 1 || in[i][0] != x[1] {
			return nil, fmt.Errorf("InstanceNormalization: param %d shape %v, want [%d]", i, in[i], x[1])
		}
	}
	return []tensor.Shape{x.Clone()}, nil
}

func (n *instancenorm) FLOPs(in []tensor.Shape) int64 {
	// Mean pass + variance pass + normalize: ~4 per element.
	return 4 * int64(in[0].NumElements())
}

func (n *instancenorm) Virtualize(ins []Source, outNo int) (Source, error) {
	if outNo != 0 {
		return nil, fmt.Errorf("InstanceNormalization: output %d out of range", outNo)
	}
	if len(ins) != 3 {
		return nil, errInputs("InstanceNormalization", "3", len(ins))
	}
	return pulled(ins, func(ins []Source) Source {
		return &instancenormSource{
			x: ins[0], scale: ins[1], bias: ins[2], eps: n.eps,
			buf:  make([]int, ins[0].Shape().Rank()),
			cBuf: make([]int, 1),
		}
	}), nil
}

type instancenormSource struct {
	x, scale, bias Source
	eps            float32
	buf            []int
	cBuf           []int
}

func (s *instancenormSource) Shape() tensor.Shape { return s.x.Shape() }

func (s *instancenormSource) Load(idx []int) float32 {
	xShape := s.x.Shape()
	spatialCount := 1
	for i := 2; i < xShape.Rank(); i++ {
		spatialCount *= xShape[i]
	}
	s.buf[0], s.buf[1] = idx[0], idx[1]
	var sum, sumSq float64
	for sp := 0; sp < spatialCount; sp++ {
		rem := sp
		for i := xShape.Rank() - 1; i >= 2; i-- {
			s.buf[i] = rem % xShape[i]
			rem /= xShape[i]
		}
		v := float64(s.x.Load(s.buf))
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(spatialCount)
	variance := sumSq/float64(spatialCount) - mean*mean
	s.cBuf[0] = idx[1]
	sc := float64(s.scale.Load(s.cBuf))
	bi := float64(s.bias.Load(s.cBuf))
	x := float64(s.x.Load(idx))
	return float32(sc*(x-mean)/math.Sqrt(variance+float64(s.eps)) + bi)
}
