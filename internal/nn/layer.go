// Package nn implements a from-scratch neural-network stack: layers with
// explicit forward caches, softmax cross-entropy loss, SGD/Adam optimizers,
// and flat parameter-vector views used by the federated-learning substrate.
//
// Layers are stateless with respect to a forward pass: Forward returns the
// activation cache that Backward later consumes. Because no pass state is
// stored on the layer itself, a single layer (or network) instance can be
// run forward multiple times before backpropagating — which is exactly what
// CIP's dual-channel architecture requires when both blend components share
// one backbone (paper Fig. 3).
package nn

import (
	"fmt"

	"github.com/cip-fl/cip/internal/tensor"
)

// Cache carries layer-specific activation state from Forward to Backward.
type Cache any

// Layer is a differentiable network building block.
type Layer interface {
	// Forward computes the layer output for x. train marks a training pass;
	// no layer in this package behaves differently under it. The returned
	// cache must be passed to Backward.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache)
	// Backward consumes a cache from Forward and the gradient of the loss
	// with respect to the layer output, accumulates parameter gradients
	// (adding into Param.Grad), and returns the gradient with respect to
	// the layer input.
	Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Param is a trainable tensor together with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	packs *weightPacks // Value packed as a GEMM operand (pack.go), or nil
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Sequential chains layers; it is itself a Layer, so networks compose.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

type sequentialCache struct {
	caches []Cache
}

// Forward runs x through every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	caches := make([]Cache, len(s.Layers))
	out := x
	for i, l := range s.Layers {
		out, caches[i] = l.Forward(out, train)
	}
	return out, &sequentialCache{caches: caches}
}

// Backward backpropagates through the layers in reverse order.
func (s *Sequential) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	return s.BackwardFor(cache, grad, AllGrads)
}

// Grads selects the gradients a backward pass produces.
type Grads uint8

const (
	// ParamGrads accumulates ∂L/∂θ into every Param.Grad.
	ParamGrads Grads = 1 << iota
	// InputGrad returns ∂L/∂x.
	InputGrad
	// AllGrads is what Backward produces.
	AllGrads = ParamGrads | InputGrad
)

// PartialBackward is implemented by layers that can produce part of
// Backward's gradients for less work. Training never reads a network's
// own input gradient, which for a first convolution costs a full GEMM plus
// a col2im scatter; CIP's Step I optimizes an input perturbation against
// fixed weights and never reads a parameter gradient, which costs a
// weight-gradient GEMM per layer and pass.
type PartialBackward interface {
	// BackwardFor is Backward restricted to want. Without ParamGrads it
	// leaves every Param.Grad untouched; without InputGrad its result is
	// unspecified (possibly nil) and callers ignore it. The gradients it
	// does produce are bit-identical to Backward's.
	BackwardFor(cache Cache, grad *tensor.Tensor, want Grads) *tensor.Tensor
}

// BackwardFor runs l's backward pass for the gradients in want. A layer
// that does not implement PartialBackward runs its full Backward, which
// produces both.
func BackwardFor(l Layer, cache Cache, grad *tensor.Tensor, want Grads) *tensor.Tensor {
	if pb, ok := l.(PartialBackward); ok {
		return pb.BackwardFor(cache, grad, want)
	}
	return l.Backward(cache, grad)
}

// BackwardFor implements PartialBackward: every layer above the first
// must hand its input gradient down, so only the first layer is asked for
// want alone.
func (s *Sequential) BackwardFor(cache Cache, grad *tensor.Tensor, want Grads) *tensor.Tensor {
	c, ok := cache.(*sequentialCache)
	if !ok {
		panic(fmt.Sprintf("nn: Sequential.Backward got cache of type %T", cache))
	}
	g := grad
	for i := len(s.Layers) - 1; i >= 0; i-- {
		w := want
		if i > 0 {
			w |= InputGrad
		}
		g = BackwardFor(s.Layers[i], c.caches[i], g, w)
	}
	return g
}

// TrainBackward backpropagates a training step's loss gradient into the
// parameter gradients. Training never consumes the network's own input
// gradient, so the first layer may skip computing it; use net.Backward
// when the input gradient is needed (gradient checking, input-space
// perturbation).
func TrainBackward(net Layer, cache Cache, grad *tensor.Tensor) {
	BackwardFor(net, cache, grad, ParamGrads)
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters in ps. The paper's
// Table XI compares this count between legacy and CIP dual-channel models.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}
