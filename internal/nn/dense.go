package nn

import (
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Dense is a fully connected layer: out = x·Wᵀ + b for x of shape [N, in].
type Dense struct {
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]
}

// NewDense constructs a Dense layer with He initialization.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam("dense.w", out, in),
		B:   NewParam("dense.b", out),
	}
	d.W.Value.HeInit(rng, in)
	return d
}

// Forward computes x·Wᵀ + b, with the bias fused into the GEMM epilogue.
// The cache is the input itself.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.NewLike(x, x.Shape[0], d.Out)
	tensor.MatMulTransBBiasInto(out, x, d.W.Value, d.B.Value.Data)
	return out, x
}

// Backward accumulates dW = gradᵀ·x and db = Σ grad, returning grad·W.
func (d *Dense) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	d.BackwardParams(cache, grad)
	return tensor.MatMul(grad, d.W.Value) // [N, In]
}

// BackwardParams implements ParamBackprop: weight/bias gradients without
// the grad·W product a first layer never needs.
func (d *Dense) BackwardParams(cache Cache, grad *tensor.Tensor) {
	x := cache.(*tensor.Tensor)
	tensor.AddInPlace(d.W.Grad, tensor.MatMulTransA(grad, x)) // [Out, In]
	n := grad.Shape[0]
	for i := 0; i < n; i++ {
		row := grad.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			d.B.Grad.Data[j] += row[j]
		}
	}
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
