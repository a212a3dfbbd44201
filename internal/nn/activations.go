package nn

import "github.com/cip-fl/cip/internal/tensor"

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
