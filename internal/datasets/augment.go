package datasets

import (
	"math/rand"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/tensor"
)

// AugmentBatch applies the paper's CIFAR-AUG pipeline, scaled to our
// resolution: random crop after zero padding by pad pixels, then a random
// horizontal flip, independently per sample. Tabular inputs are returned
// unchanged.
func AugmentBatch(rng *rand.Rand, x *tensor.Tensor, in model.Input, pad int) *tensor.Tensor {
	if !in.IsImage() || pad < 0 {
		return x
	}
	n := x.Shape[0]
	out := tensor.NewLike(x, x.Shape...)
	c, h, w := in.C, in.H, in.W
	for b := 0; b < n; b++ {
		dy := rng.Intn(2*pad+1) - pad
		dx := rng.Intn(2*pad+1) - pad
		flip := rng.Intn(2) == 1
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for y := 0; y < h; y++ {
				sy := y + dy
				for xx := 0; xx < w; xx++ {
					sx := xx + dx
					if flip {
						sx = w - 1 - sx
					}
					var v float64
					if sy >= 0 && sy < h && sx >= 0 && sx < w {
						v = x.Data[base+sy*w+sx]
					}
					out.Data[base+y*w+xx] = v
				}
			}
		}
	}
	return out
}

// FlipHorizontal returns a horizontally mirrored copy of every image.
func FlipHorizontal(x *tensor.Tensor, in model.Input) *tensor.Tensor {
	if !in.IsImage() {
		return x.Clone()
	}
	n := x.Shape[0]
	out := tensor.New(x.Shape...)
	c, h, w := in.C, in.H, in.W
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					out.Data[base+y*w+xx] = x.Data[base+y*w+(w-1-xx)]
				}
			}
		}
	}
	return out
}
