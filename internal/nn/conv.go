package nn

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with OIHW kernels,
// implemented by lowering each image to columns and multiplying by the
// kernel matrix (tensor.ConvForwardInto). Its forward cache is its input,
// so the input must stay unmodified until the backward pass has run.
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

// The conv cache is the layer's input x itself: the backward pass lowers
// what it needs of x again, a block of tap rows at a time, into pooled
// scratch (tensor.ConvParamGradsInto). Boxing the existing pointer into
// the Cache interface costs no allocation. x must not be mutated between
// Forward and the Backward that consumes its cache; nothing in this
// package writes into a layer's input.

// Forward computes the convolution for x of shape [N, InC, InH, InW]. Each
// image's product is its NCHW output, bias included, so nothing is
// reordered. The output lives where x does, so under a workspace the pass
// allocates nothing.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	g := c.Geom
	out := tensor.NewLike(x, x.Shape[0], c.OutC, g.OutH(), g.OutW())
	tensor.ConvForwardInto(out, x, c.W.Value, c.B.Value.Data, g)
	return out, x
}

// Backward accumulates kernel/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	return c.BackwardFor(cache, grad, AllGrads)
}

// BackwardFor implements PartialBackward: without ParamGrads it skips the
// kernel and bias gradients, which alone read the cached input, and
// without InputGrad the input-gradient GEMMs and col2im.
func (c *Conv2D) BackwardFor(cache Cache, grad *tensor.Tensor, want Grads) *tensor.Tensor {
	x := cache.(*tensor.Tensor)
	g := c.Geom
	if want&ParamGrads != 0 {
		tensor.ConvParamGradsInto(c.W.Grad, c.B.Grad.Data, x, grad, g)
	}
	if want&InputGrad == 0 {
		return nil
	}
	dx := tensor.NewLike(grad, x.Shape...)
	return tensor.ConvInputGradInto(dx, grad, c.W.Value, g)
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
