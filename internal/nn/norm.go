package nn

import (
	"math"

	"github.com/cip-fl/cip/internal/tensor"
)

// BatchNorm2D normalizes each channel of NCHW input over the batch and
// spatial dimensions, with learnable scale (gamma) and shift (beta).
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat decay; 0 means use the 0.9 default
	Gamma    *Param  // [C]
	Beta     *Param  // [C]

	// Running statistics used at inference time. They are exported so the
	// FL substrate can average them across clients along with parameters.
	RunningMean *tensor.Tensor // [C]
	RunningVar  *tensor.Tensor // [C]
}

// NewBatchNorm2D constructs a batch norm over c channels with gamma=1, beta=0.
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.9,
		Gamma:       NewParam("bn.gamma", c),
		Beta:        NewParam("bn.beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.Value.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

type bnCache struct {
	xhat   *tensor.Tensor // also carries the input shape
	invStd []float64
	train  bool
}

// Forward normalizes per channel; in train mode it uses batch statistics and
// updates the running averages, in eval mode it uses the running averages.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.NewLike(x, x.Shape...)
	xhat := tensor.NewLike(x, x.Shape...)
	invStd := tensor.NewLike(x, c).Data
	area := n * h * w

	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if train {
			s := 0.0
			for b := 0; b < n; b++ {
				base := (b*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					s += x.Data[base+i]
				}
			}
			mean = s / float64(area)
			v := 0.0
			for b := 0; b < n; b++ {
				base := (b*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					d := x.Data[base+i] - mean
					v += d * d
				}
			}
			variance = v / float64(area)
			m := bn.Momentum
			if m == 0 {
				m = 0.9
			}
			bn.RunningMean.Data[ch] = m*bn.RunningMean.Data[ch] + (1-m)*mean
			bn.RunningVar.Data[ch] = m*bn.RunningVar.Data[ch] + (1-m)*variance
		} else {
			mean = bn.RunningMean.Data[ch]
			variance = bn.RunningVar.Data[ch]
		}
		is := 1.0 / math.Sqrt(variance+bn.Eps)
		invStd[ch] = is
		g, bta := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
		for b := 0; b < n; b++ {
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				xh := (x.Data[base+i] - mean) * is
				xhat.Data[base+i] = xh
				out.Data[base+i] = g*xh + bta
			}
		}
	}
	return out, &bnCache{xhat: xhat, invStd: invStd, train: train}
}

// Backward implements the standard batch-norm gradient. In eval mode the
// normalization constants are fixed, so the gradient is a plain affine map.
func (bn *BatchNorm2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	cc := cache.(*bnCache)
	inShape := cc.xhat.Shape
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	out := tensor.NewLike(grad, inShape...)
	area := float64(n * h * w)

	for ch := 0; ch < c; ch++ {
		var sumG, sumGX float64
		for b := 0; b < n; b++ {
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				g := grad.Data[base+i]
				sumG += g
				sumGX += g * cc.xhat.Data[base+i]
			}
		}
		bn.Beta.Grad.Data[ch] += sumG
		bn.Gamma.Grad.Data[ch] += sumGX

		gamma := bn.Gamma.Value.Data[ch]
		is := cc.invStd[ch]
		if cc.train {
			// dX = gamma*invStd/area * (area*dY − Σ dY − x̂ * Σ(dY·x̂))
			for b := 0; b < n; b++ {
				base := (b*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					g := grad.Data[base+i]
					xh := cc.xhat.Data[base+i]
					out.Data[base+i] = gamma * is / area * (area*g - sumG - xh*sumGX)
				}
			}
		} else {
			for b := 0; b < n; b++ {
				base := (b*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					out.Data[base+i] = gamma * is * grad.Data[base+i]
				}
			}
		}
	}
	return out
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }
