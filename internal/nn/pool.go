package nn

import (
	"fmt"

	"github.com/cip-fl/cip/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling over NCHW inputs.
type MaxPool2D struct {
	Size int // pooling window edge and stride
}

type maxPoolCache struct {
	argmax  []int // flat input index of each output element's max
	inShape []int // the input's own Shape: x outlives the cache
}

// Forward pools each Size×Size window to its maximum.
func (m MaxPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	if m.Size <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D size must be positive, got %d", m.Size))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/m.Size, w/m.Size
	out := tensor.NewLike(x, n, c, oh, ow)
	argmax := x.Workspace().Ints(out.Size())
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := -1
					bestV := 0.0
					for ky := 0; ky < m.Size; ky++ {
						for kx := 0; kx < m.Size; kx++ {
							idx := inBase + (oy*m.Size+ky)*w + ox*m.Size + kx
							if best < 0 || x.Data[idx] > bestV {
								best, bestV = idx, x.Data[idx]
							}
						}
					}
					out.Data[outBase+oy*ow+ox] = bestV
					argmax[outBase+oy*ow+ox] = best
				}
			}
		}
	}
	return out, &maxPoolCache{argmax: argmax, inShape: x.Shape}
}

// Backward routes each output gradient to the input position that won the max.
func (m MaxPool2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*maxPoolCache)
	out := tensor.NewLike(grad, c.inShape...)
	out.Zero()
	for i, src := range c.argmax {
		out.Data[src] += grad.Data[i]
	}
	return out
}

// Params returns nil; pooling has no parameters.
func (MaxPool2D) Params() []*Param { return nil }

// Flatten reshapes [N, ...] input to [N, D].
type Flatten struct{}

// Forward flattens all trailing dimensions.
func (Flatten) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	n := x.Shape[0]
	d := x.Size() / n
	return x.Reshape(n, d), x // only its Shape is read back
}

// Backward restores the original shape.
func (Flatten) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(cache.(*tensor.Tensor).Shape...)
}

// Params returns nil; Flatten has no parameters.
func (Flatten) Params() []*Param { return nil }
