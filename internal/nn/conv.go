package nn

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with OIHW kernels,
// implemented by lowering each image to columns and multiplying by the
// kernel matrix (tensor.ConvForwardInto).
type Conv2D struct {
	Geom tensor.ConvGeom
	OutC int
	W    *Param // [OutC, InC*KH*KW]
	B    *Param // [OutC]
}

// NewConv2D constructs a convolution with He initialization. It panics on a
// degenerate geometry; layer construction errors are programmer errors.
func NewConv2D(rng *rand.Rand, g tensor.ConvGeom, outC int) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %v", err))
	}
	fanIn := g.InC * g.KH * g.KW
	c := &Conv2D{
		Geom: g,
		OutC: outC,
		W:    NewParam("conv.w", outC, fanIn),
		B:    NewParam("conv.b", outC),
	}
	c.W.Value.HeInit(rng, fanIn)
	return c
}

// The conv cache is the batch's columns themselves ([N, InC*KH*KW,
// OH*OW]); boxing the existing pointer into the Cache interface costs no
// allocation, and the batch size is its leading dimension.

// Forward computes the convolution for x of shape [N, InC, InH, InW]. Each
// image's product is its NCHW output, bias included, so nothing is
// reordered. Every buffer lives where x does, so under a workspace the
// pass allocates nothing.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	g := c.Geom
	n, oh, ow := x.Shape[0], g.OutH(), g.OutW()
	cols := tensor.NewLike(x, n, g.InC*g.KH*g.KW, oh*ow)
	out := tensor.NewLike(x, n, c.OutC, oh, ow)
	tensor.ConvForwardInto(out, cols, x, c.W.Value, c.B.Value.Data, g)
	return out, cols
}

// Backward accumulates kernel/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	return c.BackwardFor(cache, grad, AllGrads)
}

// BackwardFor implements PartialBackward: without ParamGrads it skips the
// kernel and bias gradients, and without InputGrad the input-gradient
// GEMMs and col2im. It consumes the cached columns: they are dead once dW
// is computed, so the input gradient reuses their storage for its grad
// columns.
func (c *Conv2D) BackwardFor(cache Cache, grad *tensor.Tensor, want Grads) *tensor.Tensor {
	cols := cache.(*tensor.Tensor)
	g := c.Geom
	if want&ParamGrads != 0 {
		tensor.ConvParamGradsInto(c.W.Grad, c.B.Grad.Data, cols, grad, g)
	}
	if want&InputGrad == 0 {
		return nil
	}
	dx := tensor.NewLike(grad, cols.Shape[0], g.InC, g.InH, g.InW)
	return tensor.ConvInputGradInto(dx, cols, grad, c.W.Value, g)
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
