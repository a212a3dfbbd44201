package core

import (
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// dualAdapter exposes DualChannelModel as a single-input nn.Layer so
// nn.GradCheck can probe it end to end without going through CIPModel's
// blending. The second channel is a fixed linear image of the first,
// x2 = 2x, so d loss/dx = g1 + 2·g2 — exercising BOTH backbone passes,
// the feature concat/split, and the shared-parameter accumulation.
type dualAdapter struct {
	m *DualChannelModel
}

type dualAdapterCache struct {
	c *DualCache
}

func (a dualAdapter) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Cache) {
	x2 := tensor.New(x.Shape...)
	for i, v := range x.Data {
		x2.Data[i] = 2 * v
	}
	logits, c := a.m.Forward(x, x2, train)
	return logits, dualAdapterCache{c: c}
}

func (a dualAdapter) Backward(cache nn.Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(dualAdapterCache)
	g1, g2 := a.m.Backward(c.c, grad)
	out := tensor.New(g1.Shape...)
	for i := range out.Data {
		out.Data[i] = g1.Data[i] + 2*g2.Data[i]
	}
	return out
}

func (a dualAdapter) Params() []*nn.Param { return a.m.Params() }

// TestDualChannelModelGradCheck finite-differences the raw dual-channel
// model (Fig. 3) directly: previous coverage only reached it wrapped in
// CIPModel, which never propagates a distinct x2 gradient path because
// both channels derive from the same blend.
func TestDualChannelModelGradCheck(t *testing.T) {
	dual := newTestDual(40, 3)
	x := tensor.New(2, 2, 6, 6)
	x.RandUniform(rand.New(rand.NewSource(41)), 0.1, 0.9)
	if rel := nn.GradCheck(dualAdapter{dual}, x, []int{0, 2}, 131); rel > 1e-3 {
		t.Fatalf("dual-channel grad check max relative error %v", rel)
	}
}

// TestSingleChannelAdapterGradCheck runs the ablation variant through the
// same adapter; g2 must come back zero so the adapter reduces to g1.
func TestSingleChannelAdapterGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	single := NewSingleChannelModel(rng, model.VGG, testIn, 3)
	x := tensor.New(2, 2, 6, 6)
	x.RandUniform(rand.New(rand.NewSource(43)), 0.1, 0.9)
	if rel := nn.GradCheck(dualAdapter{single}, x, []int{1, 2}, 131); rel > 1e-3 {
		t.Fatalf("single-channel grad check max relative error %v", rel)
	}
}

// TestBackwardParamsMatchesBackward: the parameter-only backward pass
// Step II trains through accumulates bit-for-bit the Param.Grad that the
// full Backward does — for the raw dual-channel model (both channel
// layouts) and through CIPModel's blend — so skipping ∂L/∂x cannot move a
// digest.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	x := tensor.New(4, 2, 6, 6)
	x.RandUniform(rand.New(rand.NewSource(44)), 0, 1)
	labels := []int{0, 2, 1, 2}
	grads := func(params []*nn.Param, pass func()) []float64 {
		nn.ZeroGrads(params)
		pass()
		pass() // accumulation, not assignment
		return nn.FlattenGrads(params)
	}
	for name, dual := range map[string]*DualChannelModel{
		"dual":   newTestDual(45, 3),
		"single": NewSingleChannelModel(rand.New(rand.NewSource(45)), model.VGG, testIn, 3),
	} {
		x2 := tensor.Scale(x, 0.5)
		full := grads(dual.Params(), func() {
			logits, c := dual.Forward(x, x2, true)
			dual.Backward(c, nn.SoftmaxCrossEntropy(logits, labels).Grad)
		})
		paramsOnly := grads(dual.Params(), func() {
			logits, c := dual.Forward(x, x2, true)
			dual.BackwardParams(c, nn.SoftmaxCrossEntropy(logits, labels).Grad)
		})
		if !sameBits(full, paramsOnly) {
			t.Errorf("%s: DualChannelModel.BackwardParams and Backward accumulate different gradients", name)
		}

		m := NewCIPModel(dual, NewPerturbation(46, []int{2, 6, 6}, 0, 1).T, 0.9)
		full = grads(m.Params(), func() {
			logits, c := m.Forward(x, true)
			m.Backward(c, nn.SoftmaxCrossEntropy(logits, labels).Grad)
		})
		paramsOnly = grads(m.Params(), func() {
			logits, c := m.Forward(x, true)
			nn.TrainBackward(m, c, nn.SoftmaxCrossEntropy(logits, labels).Grad)
		})
		if !sameBits(full, paramsOnly) {
			t.Errorf("%s: CIPModel.BackwardParams and Backward accumulate different gradients", name)
		}

		// With AccumTGrad set the parameter-only pass must still feed ∂L/∂T.
		m.AccumTGrad = true
		m.ZeroTGrad()
		logits, c := m.Forward(x, true)
		m.BackwardParams(c, nn.SoftmaxCrossEntropy(logits, labels).Grad)
		if m.TGrad.L1Norm() == 0 {
			t.Errorf("%s: BackwardParams under AccumTGrad dropped the perturbation gradient", name)
		}
	}
}
