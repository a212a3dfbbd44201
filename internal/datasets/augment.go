package datasets

import (
	"math/rand"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/tensor"
)

// augmentPad is the zero padding, in pixels, around AugmentBatch's
// random crop.
const augmentPad = 1

// AugmentBatch applies the paper's CIFAR-AUG pipeline, scaled to our
// resolution: random crop after zero padding by augmentPad pixels, then a
// random horizontal flip, independently per sample. Tabular inputs are
// returned unchanged.
func AugmentBatch(rng *rand.Rand, x *tensor.Tensor, in model.Input) *tensor.Tensor {
	if !in.IsImage() {
		return x
	}
	n := x.Shape[0]
	out := tensor.NewLike(x, x.Shape...)
	c, h, w := in.C, in.H, in.W
	for b := 0; b < n; b++ {
		dy := rng.Intn(2*augmentPad+1) - augmentPad
		dx := rng.Intn(2*augmentPad+1) - augmentPad
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
