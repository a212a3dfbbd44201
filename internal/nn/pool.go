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

// Forward pools each Size×Size window to its maximum. The window's first
// element (in row-major order) seeds the maximum and a later one replaces
// it only when greater, which fixes the winner of a tie and of a NaN.
func (m MaxPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	if m.Size <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D size must be positive, got %d", m.Size))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/m.Size, w/m.Size
	out := tensor.NewLike(x, n, c, oh, ow)
	argmax := x.Workspace().Ints(out.Size())
	if m.Size == 2 {
		maxPool2(out.Data, argmax, x.Data, n*c, h, w)
	} else {
		maxPoolN(out.Data, argmax, x.Data, m.Size, n*c, h, w)
	}
	return out, &maxPoolCache{argmax: argmax, inShape: x.Shape}
}

// maxPoolN pools planes planes of h×w values in x into out, recording each
// window's winning flat index of x in argmax: any window size.
func maxPoolN(out []float64, argmax []int, x []float64, size, planes, h, w int) {
	oh, ow := h/size, w/size
	for p := 0; p < planes; p++ {
		inBase, outBase := p*h*w, p*oh*ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := -1
				bestV := 0.0
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						idx := inBase + (oy*size+ky)*w + ox*size + kx
						if best < 0 || x[idx] > bestV {
							best, bestV = idx, x[idx]
						}
					}
				}
				out[outBase+oy*ow+ox] = bestV
				argmax[outBase+oy*ow+ox] = best
			}
		}
	}
}

// maxPool2 is maxPoolN for 2×2 windows, the model's pooling: one pass per
// pair of input rows, the four candidates compared in maxPoolN's order.
// A comparison moves the winner's index k by arithmetic on its 0/1 result
// rather than by a branch, and the running maximum is reloaded through k:
// on noisy activations a branch would mispredict every other window.
func maxPool2(out []float64, argmax []int, x []float64, planes, h, w int) {
	oh, ow := h/2, w/2
	for p := 0; p < planes; p++ {
		for oy := 0; oy < oh; oy++ {
			i0 := p*h*w + 2*oy*w
			win := x[i0 : i0+w+2*ow]
			o := (p*oh + oy) * ow
			dst, arg := out[o:o+ow], argmax[o:o+ow]
			for ox := range dst {
				k := 2 * ox
				k += b2i(win[k+1] > win[k])
				c := w + 2*ox
				k += (c - k) & -b2i(win[c] > win[k])
				c++
				k += (c - k) & -b2i(win[c] > win[k])
				dst[ox], arg[ox] = win[k], i0+k
			}
		}
	}
}

// b2i is 1 for true and 0 for false; it compiles to a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
