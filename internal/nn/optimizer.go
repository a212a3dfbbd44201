package nn

import (
	"fmt"
	"math"

	"github.com/cip-fl/cip/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// Step updates every parameter from its Grad and clears nothing; call
	// ZeroGrads separately so multi-pass accumulation (dual channel,
	// Eq. 4's two loss terms) stays explicit at the call site.
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*Param]*tensor.Tensor
}

// Step applies one SGD update: w -= LR·g, or with momentum v = Momentum·v
// + g and w -= LR·v, one fused pass per parameter.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if s.Momentum > 0 {
			if s.velocity == nil {
				s.velocity = make(map[*Param]*tensor.Tensor)
			}
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Shape...)
				s.velocity[p] = v
			}
			tensor.MomentumStep(p.Value, v, p.Grad, s.Momentum, -s.LR)
			continue
		}
		tensor.AxpyInPlace(p.Value, -s.LR, p.Grad)
	}
}

// CaptureVelocity returns the momentum buffers aligned with params: entry
// i is a copy of params[i]'s velocity, or nil when that parameter has not
// been stepped yet. Together with the parameter values themselves this is
// the optimizer's complete state, so a checkpoint that stores it can
// resume momentum SGD bit-identically.
func (s *SGD) CaptureVelocity(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if v, ok := s.velocity[p]; ok {
			out[i] = append([]float64(nil), v.Data...)
		}
	}
	return out
}

// RestoreVelocity installs momentum buffers captured by CaptureVelocity
// onto params (which must be the same parameters, in the same order).
func (s *SGD) RestoreVelocity(params []*Param, vel [][]float64) error {
	if len(vel) != len(params) {
		return fmt.Errorf("nn: RestoreVelocity got %d buffers for %d params", len(vel), len(params))
	}
	for i, data := range vel {
		if data == nil {
			if s.velocity != nil {
				delete(s.velocity, params[i])
			}
			continue
		}
		if len(data) != params[i].Value.Size() {
			return fmt.Errorf("nn: RestoreVelocity buffer %d has %d values, want %d",
				i, len(data), params[i].Value.Size())
		}
		if s.velocity == nil {
			s.velocity = make(map[*Param]*tensor.Tensor)
		}
		v := tensor.New(params[i].Value.Shape...)
		copy(v.Data, data)
		s.velocity[params[i]] = v
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam constructs Adam with the customary defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param]*tensor.Tensor)
		a.v = make(map[*Param]*tensor.Tensor)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape...)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most c.
// It returns the pre-clip norm. Both DP-SGD and plain gradient clipping use
// this primitive.
func ClipGradNorm(params []*Param, c float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > c && norm > 0 {
		scale := c / norm
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}
