package nn

import (
	"math/rand"
	"sync"

	"github.com/cip-fl/cip/internal/tensor"
)

// Dropout zeroes activations with probability Rate during training and
// rescales survivors by 1/(1-Rate) (inverted dropout). At evaluation time it
// is the identity.
type Dropout struct {
	Rate float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewDropout constructs a dropout layer with its own seeded RNG so that
// training runs are reproducible.
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(rng.Int63()))}
}

type dropoutCache struct {
	mask []float64 // nil means the pass was a no-op (eval mode or rate 0)
}

// Forward applies the stochastic mask in train mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	if !train || d.Rate <= 0 {
		return x, &dropoutCache{}
	}
	keep := 1 - d.Rate
	mask := tensor.NewLike(x, len(x.Data)).Data
	out := tensor.NewLike(x, x.Shape...)
	d.mu.Lock()
	for i := range mask {
		mask[i] = 0
		if d.rng.Float64() < keep {
			mask[i] = 1 / keep
		}
	}
	d.mu.Unlock()
	for i, v := range x.Data {
		out.Data[i] = v * mask[i]
	}
	return out, &dropoutCache{mask: mask}
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*dropoutCache)
	if c.mask == nil {
		return grad
	}
	out := tensor.NewLike(grad, grad.Shape...)
	for i, g := range grad.Data {
		out.Data[i] = g * c.mask[i]
	}
	return out
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
