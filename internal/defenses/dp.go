package defenses

import (
	"math"
	"math/rand"

	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// DPStep is the DP-SGD training step (Abadi et al.): gradients are
// computed per microbatch, clipped to an L2 bound, summed, perturbed with
// Gaussian noise of standard deviation NoiseMultiplier·Clip, and averaged.
// Run inside each client's local loop this realizes local DP, the variant
// that still defends against a malicious server (§V-A).
type DPStep struct {
	// Clip is the per-microbatch gradient L2 bound C.
	Clip float64
	// NoiseMultiplier is σ; the added noise is N(0, (σC)²) per coordinate.
	NoiseMultiplier float64
	// MicrobatchSize controls the clipping granularity (1 = per-example,
	// the strictest and slowest). Defaults to 1.
	MicrobatchSize int

	rng   *rand.Rand
	accum []float64 // the step's sum of clipped gradients, kept across steps
}

// NewDPStep constructs a DP training step with its own noise source.
func NewDPStep(clip, noiseMultiplier float64, microbatch int, rng *rand.Rand) *DPStep {
	if microbatch <= 0 {
		microbatch = 1
	}
	return &DPStep{
		Clip:            clip,
		NoiseMultiplier: noiseMultiplier,
		MicrobatchSize:  microbatch,
		rng:             rand.New(rand.NewSource(rng.Int63())),
	}
}

// Step implements fl.TrainStep.
func (s *DPStep) Step(net nn.Layer, opt nn.Optimizer, x *tensor.Tensor, y []int) float64 {
	params := net.Params()
	n := x.Shape[0]
	ss := x.Size() / n

	if np := nn.NumParams(params); len(s.accum) != np {
		s.accum = make([]float64, np)
	} else {
		clear(s.accum)
	}
	accum := s.accum
	var lossSum float64
	micro := 0
	for start := 0; start < n; start += s.MicrobatchSize {
		end := start + s.MicrobatchSize
		if end > n {
			end = n
		}
		mb := tensor.FromSlice(x.Data[start*ss:end*ss], append([]int{end - start}, x.Shape[1:]...)...)
		my := y[start:end]

		nn.ZeroGrads(params)
		logits, cache := net.Forward(mb, true)
		res := nn.SoftmaxCrossEntropy(logits, my)
		nn.TrainBackward(net, cache, res.Grad)
		nn.ClipGradNorm(params, s.Clip)
		addToVector(accum, params)
		lossSum += res.Loss * float64(end-start)
		micro++
	}

	std := s.NoiseMultiplier * s.Clip
	inv := 1.0 / float64(micro)
	off := 0
	for _, p := range params {
		for i := range p.Grad.Data {
			noise := 0.0
			if std > 0 {
				noise = s.rng.NormFloat64() * std
			}
			p.Grad.Data[i] = (accum[off+i] + noise) * inv
		}
		off += p.Grad.Size()
	}
	opt.Step(params)
	return lossSum / float64(n)
}

func addToVector(dst []float64, params []*nn.Param) {
	off := 0
	for _, p := range params {
		for i, g := range p.Grad.Data {
			dst[off+i] += g
		}
		off += p.Grad.Size()
	}
}

// NoiseMultiplierFor calibrates the DP-SGD noise multiplier σ for a total
// (ε, δ) budget spent over the given number of steps, using the Gaussian
// mechanism σ_step = √(2·ln(1.25/δ))/ε_step combined with advanced
// composition ε_step ≈ ε/√(2·T·ln(1/δ)). This is a standard, slightly
// conservative approximation of the moments accountant: smaller ε or more
// steps yields more noise, which is the behavior the paper's ε sweeps
// exercise (Fig. 5, Fig. 6).
func NoiseMultiplierFor(eps, delta float64, steps int) float64 {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0
	}
	if steps < 1 {
		steps = 1
	}
	epsStep := eps / math.Sqrt(2*float64(steps)*math.Log(1/delta))
	return math.Sqrt(2*math.Log(1.25/delta)) / epsStep
}

// EpsilonFor inverts NoiseMultiplierFor: the total ε spent by running the
// Gaussian mechanism with noise multiplier σ for the given number of
// steps at the given δ. NoiseMultiplierFor and EpsilonFor are exact
// inverses, which the accounting tests rely on.
func EpsilonFor(sigma, delta float64, steps int) float64 {
	if sigma <= 0 || delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	if steps < 1 {
		steps = 1
	}
	epsStep := math.Sqrt(2*math.Log(1.25/delta)) / sigma
	return epsStep * math.Sqrt(2*float64(steps)*math.Log(1/delta))
}
