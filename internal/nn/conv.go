package nn

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with OIHW kernels,
// implemented via im2col lowering to a single matmul.
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

// The conv cache is the im2col matrix itself ([N*OH*OW, InC*KH*KW]);
// boxing the existing pointer into the Cache interface costs no allocation,
// and the batch size is recoverable from its row count.

// Forward computes the convolution for x of shape [N, InC, InH, InW]; the
// bias add is fused into the GEMM epilogue. Every buffer lives where x
// does, so under a workspace the pass allocates nothing.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	g := c.Geom
	n := x.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	spatial := oh * ow

	cols := tensor.Im2Col(x, g)                  // [N*OH*OW, K]
	prod := tensor.NewLike(x, n*spatial, c.OutC) // [N*OH*OW, OutC]
	tensor.MatMulTransBBiasInto(prod, cols, c.W.Value, c.B.Value.Data)

	out := tensor.NewLike(x, n, c.OutC, oh, ow)
	for b := 0; b < n; b++ {
		for s := 0; s < spatial; s++ {
			row := prod.Data[(b*spatial+s)*c.OutC : (b*spatial+s+1)*c.OutC]
			for oc, v := range row {
				out.Data[(b*c.OutC+oc)*spatial+s] = v
			}
		}
	}
	return out, cols
}

// Backward accumulates kernel/bias gradients and returns the input gradient.
// It consumes the cached im2col matrix: the columns are dead once dW is
// computed, so the same storage is reused as the grad-columns destination.
func (c *Conv2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	gm, cols, n := c.accumParamGrads(cache, grad)
	gradCols := tensor.MatMulInto(cols, gm, c.W.Value) // [N*OH*OW, K]
	return tensor.Col2Im(gradCols, n, c.Geom)
}

// BackwardParams implements ParamBackprop: kernel/bias gradients without
// the input-gradient GEMM and col2im scatter a first layer never needs.
func (c *Conv2D) BackwardParams(cache Cache, grad *tensor.Tensor) {
	c.accumParamGrads(cache, grad)
}

// accumParamGrads adds this batch's kernel and bias gradients into the
// params and returns the reordered output gradient and the cached columns.
func (c *Conv2D) accumParamGrads(cache Cache, grad *tensor.Tensor) (gm, cols *tensor.Tensor, n int) {
	cols = cache.(*tensor.Tensor)
	g := c.Geom
	spatial := g.OutH() * g.OutW()
	n = cols.Shape[0] / spatial

	// Reorder grad [N, OutC, OH, OW] into row-major [N*OH*OW, OutC].
	gm = tensor.NewLike(grad, n*spatial, c.OutC)
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			base := (b*c.OutC + oc) * spatial
			for s := 0; s < spatial; s++ {
				gm.Data[(b*spatial+s)*c.OutC+oc] = grad.Data[base+s]
			}
		}
	}

	tensor.AddInPlace(c.W.Grad, tensor.MatMulTransA(gm, cols)) // [OutC, K]
	for r := 0; r < n*spatial; r++ {
		row := gm.Data[r*c.OutC : (r+1)*c.OutC]
		for oc, v := range row {
			c.B.Grad.Data[oc] += v
		}
	}
	return gm, cols, n
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
