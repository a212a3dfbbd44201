package nn

import (
	"math"

	"github.com/cip-fl/cip/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct{}

// Forward zeroes negative activations. The output doubles as the backward
// gate (y > 0 exactly when the input was positive), so it is the cache and
// no mask is stored.
func (ReLU) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.ReluInto(tensor.NewLike(x, x.Shape...), x)
	return out, out
}

// Backward gates the gradient by the forward output's sign.
func (ReLU) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	y := cache.(*tensor.Tensor)
	return tensor.ReluGateInto(tensor.NewLike(grad, grad.Shape...), y, grad)
}

// Params returns nil; ReLU has no parameters.
func (ReLU) Params() []*Param { return nil }

// LeakyReLU is ReLU with a small negative slope.
type LeakyReLU struct {
	Slope float64
}

type leakyCache struct {
	neg []bool
}

// Forward scales negative activations by Slope.
func (l LeakyReLU) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.NewLike(x, x.Shape...)
	neg := x.Workspace().Bools(len(x.Data))
	for i, v := range x.Data {
		neg[i] = !(v > 0)
		if neg[i] {
			out.Data[i] = l.Slope * v
		} else {
			out.Data[i] = v
		}
	}
	return out, &leakyCache{neg: neg}
}

// Backward scales gradients on the negative side by Slope.
func (l LeakyReLU) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*leakyCache)
	out := tensor.NewLike(grad, grad.Shape...)
	for i, n := range c.neg {
		if n {
			out.Data[i] = l.Slope * grad.Data[i]
		} else {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
}

// Params returns nil; LeakyReLU has no parameters.
func (LeakyReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

// Forward applies tanh elementwise; the output is the cache.
func (Tanh) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.NewLike(x, x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out, out
}

// Backward multiplies the gradient by 1 − tanh².
func (Tanh) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	y := cache.(*tensor.Tensor)
	out := tensor.NewLike(grad, grad.Shape...)
	for i, g := range grad.Data {
		out.Data[i] = g * (1 - y.Data[i]*y.Data[i])
	}
	return out
}

// Params returns nil; Tanh has no parameters.
func (Tanh) Params() []*Param { return nil }
