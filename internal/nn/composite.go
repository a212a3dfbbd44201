package nn

import (
	"fmt"

	"github.com/cip-fl/cip/internal/tensor"
)

// Residual computes out = x + Body(x), the identity-skip connection that
// characterizes the ResNet family. Body must preserve the input shape.
type Residual struct {
	Body Layer
}

type residualCache struct {
	bodyCache Cache
}

// Forward adds the body output to the input.
func (r *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	y, c := r.Body.Forward(x, train)
	if !y.SameShape(x) {
		panic(fmt.Sprintf("nn: Residual body changed shape %v -> %v", x.Shape, y.Shape))
	}
	return tensor.Add(x, y), &residualCache{bodyCache: c}
}

// Backward sends the gradient through both the skip and the body path.
func (r *Residual) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*residualCache)
	bodyGrad := r.Body.Backward(c.bodyCache, grad)
	return tensor.Add(grad, bodyGrad)
}

// Params returns the body parameters.
func (r *Residual) Params() []*Param { return r.Body.Params() }

// ConcatChannels concatenates NCHW tensors along the channel dimension.
func ConcatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	n, ca, h, w := a.Shape[0], a.Shape[1], a.Shape[2], a.Shape[3]
	cb := b.Shape[1]
	if b.Shape[0] != n || b.Shape[2] != h || b.Shape[3] != w {
		panic(fmt.Sprintf("nn: ConcatChannels shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tensor.NewLike(a, n, ca+cb, h, w)
	plane := h * w
	for bi := 0; bi < n; bi++ {
		copy(out.Data[bi*(ca+cb)*plane:], a.Data[bi*ca*plane:(bi+1)*ca*plane])
		copy(out.Data[(bi*(ca+cb)+ca)*plane:], b.Data[bi*cb*plane:(bi+1)*cb*plane])
	}
	return out
}

// splitChannels is the inverse of ConcatChannels for the backward pass.
func splitChannels(x *tensor.Tensor, ca int) (*tensor.Tensor, *tensor.Tensor) {
	n, ctot, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cb := ctot - ca
	a := tensor.NewLike(x, n, ca, h, w)
	b := tensor.NewLike(x, n, cb, h, w)
	plane := h * w
	for bi := 0; bi < n; bi++ {
		copy(a.Data[bi*ca*plane:], x.Data[bi*ctot*plane:bi*ctot*plane+ca*plane])
		copy(b.Data[bi*cb*plane:], x.Data[bi*ctot*plane+ca*plane:(bi+1)*ctot*plane])
	}
	return a, b
}

// DenseBlock computes out = concat(x, Body(x)) along channels, the
// concatenative connectivity that characterizes the DenseNet family.
type DenseBlock struct {
	Body Layer
}

type denseBlockCache struct {
	bodyCache Cache
	inC       int
}

// Forward concatenates the input with the body output channel-wise.
func (d *DenseBlock) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	y, c := d.Body.Forward(x, train)
	return ConcatChannels(x, y), &denseBlockCache{bodyCache: c, inC: x.Shape[1]}
}

// Backward splits the gradient between the pass-through and body channels.
func (d *DenseBlock) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*denseBlockCache)
	gx, gy := splitChannels(grad, c.inC)
	bodyGrad := d.Body.Backward(c.bodyCache, gy)
	return tensor.Add(gx, bodyGrad)
}

// Params returns the body parameters.
func (d *DenseBlock) Params() []*Param { return d.Body.Params() }
