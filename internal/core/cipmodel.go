package core

import (
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// CIPModel couples a dual-channel model with a perturbation and blending
// parameter so it presents the ordinary single-input nn.Layer interface:
// Forward(x) means "blend x with T per Eq. 2, then run the dual-channel
// network". The defending client holds a CIPModel with its secret t; an
// attacker querying "with original data" is modeled by WithT(zero), and an
// adaptive attacker guessing t′ by WithT(t′). All attack code therefore
// treats defended and undefended models uniformly.
type CIPModel struct {
	Alpha  float64
	Lo, Hi float64
	T      *tensor.Tensor
	Dual   *DualChannelModel

	// AccumTGrad, when set, makes Backward accumulate d(loss)/dT into
	// TGrad — Step I (Eq. 3) optimizes T through this.
	AccumTGrad bool
	TGrad      *tensor.Tensor
}

// NewCIPModel wraps dual with perturbation t and blending parameter alpha,
// clipping blended inputs into [0, 1] (the data range of every dataset in
// the evaluation).
func NewCIPModel(dual *DualChannelModel, t *tensor.Tensor, alpha float64) *CIPModel {
	return &CIPModel{
		Alpha: alpha,
		Lo:    0,
		Hi:    1,
		T:     t,
		Dual:  dual,
		TGrad: tensor.New(t.Shape...),
	}
}

// WithT returns a shallow copy querying the same network with a different
// perturbation (zero for naive external attackers, t′ for adaptive ones).
func (m *CIPModel) WithT(t *tensor.Tensor) *CIPModel {
	return &CIPModel{
		Alpha: m.Alpha, Lo: m.Lo, Hi: m.Hi,
		T: t, Dual: m.Dual,
		TGrad: tensor.New(t.Shape...),
	}
}

// ZeroT returns a zero perturbation of the model's sample shape.
func (m *CIPModel) ZeroT() *tensor.Tensor { return tensor.New(m.T.Shape...) }

type cipCache struct {
	blend *Blended
	dual  *DualCache
	n     int
}

// Forward implements nn.Layer over original (unblended) inputs.
func (m *CIPModel) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Cache) {
	b := Blend(x, m.T, m.Alpha, m.Lo, m.Hi)
	logits, dc := m.Dual.Forward(b.C1, b.C2, train)
	return logits, &cipCache{blend: b, dual: dc, n: x.Shape[0]}
}

// Backward implements nn.Layer: it accumulates network parameter
// gradients, optionally accumulates the perturbation gradient, and returns
// the gradient with respect to the original input x.
func (m *CIPModel) Backward(cache nn.Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*cipCache)
	g1, g2 := m.Dual.Backward(c.dual, grad)

	// Gate gradients through the clip: clipped elements pass nothing.
	for i, ok := range c.blend.Pass1 {
		if !ok {
			g1.Data[i] = 0
		}
	}
	for i, ok := range c.blend.Pass2 {
		if !ok {
			g2.Data[i] = 0
		}
	}

	// dC1/dx = (1-α), dC2/dx = (1+α).
	gx := tensor.NewLike(g1, g1.Shape...)
	for i := range gx.Data {
		gx.Data[i] = (1-m.Alpha)*g1.Data[i] + (1+m.Alpha)*g2.Data[i]
	}

	if m.AccumTGrad {
		// dC1/dT = α, dC2/dT = −α, summed over the batch.
		ss := m.T.Size()
		for b := 0; b < c.n; b++ {
			off := b * ss
			for j := 0; j < ss; j++ {
				m.TGrad.Data[j] += m.Alpha * (g1.Data[off+j] - g2.Data[off+j])
			}
		}
	}
	return gx
}

// BackwardParams implements nn.ParamBackprop: the parameter gradients of
// Backward without the clip gating and ∂L/∂x blend a training step throws
// away. Accumulating ∂L/∂T needs the channel-input gradients, so with
// AccumTGrad set it is the full Backward.
func (m *CIPModel) BackwardParams(cache nn.Cache, grad *tensor.Tensor) {
	if m.AccumTGrad {
		m.Backward(cache, grad)
		return
	}
	m.Dual.BackwardParams(cache.(*cipCache).dual, grad)
}

// Params implements nn.Layer, exposing the dual-channel network parameters
// (T is optimized separately in Step I and is NOT part of the FL exchange —
// it is the client's secret).
func (m *CIPModel) Params() []*nn.Param { return m.Dual.Params() }

// ZeroTGrad clears the accumulated perturbation gradient.
func (m *CIPModel) ZeroTGrad() { m.TGrad.Zero() }

var (
	_ nn.Layer         = (*CIPModel)(nil)
	_ nn.ParamBackprop = (*CIPModel)(nil)
)
