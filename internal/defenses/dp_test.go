package defenses

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// freshAccumStep is DPStep.Step as it was while it made a new accumulator
// on every step: the reference the reused accumulator is held to.
func freshAccumStep(s *DPStep, net nn.Layer, opt nn.Optimizer, x *tensor.Tensor, y []int) float64 {
	params := net.Params()
	n := x.Shape[0]
	ss := x.Size() / n
	accum := make([]float64, nn.NumParams(params))
	var lossSum float64
	micro := 0
	for start := 0; start < n; start += s.MicrobatchSize {
		end := min(start+s.MicrobatchSize, n)
		mb := tensor.FromSlice(x.Data[start*ss:end*ss], append([]int{end - start}, x.Shape[1:]...)...)
		nn.ZeroGrads(params)
		logits, cache := net.Forward(mb, true)
		res := nn.SoftmaxCrossEntropy(logits, y[start:end])
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

// TestDPStepReusedAccumulatorBitIdentical: under one seed, three steps
// with the accumulator kept on the DPStep leave the parameters and the
// losses bit-identical to three steps that allocate it afresh.
func TestDPStepReusedAccumulatorBitIdentical(t *testing.T) {
	train, _ := easyData(t, 3)
	build := func() (nn.Layer, *DPStep, nn.Optimizer) {
		net := model.NewClassifier(rand.New(rand.NewSource(4)), model.VGG, train.In, train.NumClasses)
		return net, NewDPStep(0.5, 1.1, 4, rand.New(rand.NewSource(5))), &nn.SGD{LR: 0.05, Momentum: 0.9}
	}
	netA, stepA, optA := build()
	netB, stepB, optB := build()
	for i := 0; i < 3; i++ {
		x, y := train.Batch(16*i, 16*i+16)
		la := stepA.Step(netA, optA, x, y)
		lb := freshAccumStep(stepB, netB, optB, x, y)
		if math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("step %d: loss %v, want %v", i, la, lb)
		}
	}
	pa, pb := nn.FlattenParams(netA.Params()), nn.FlattenParams(netB.Params())
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			t.Fatalf("parameter %d after 3 steps: %v, want %v", i, pa[i], pb[i])
		}
	}
}

// TestDPStepWarmStepAllocatesNoModelVector: on an MLP whose parameters
// dwarf its per-microbatch activations, a warmed step allocates less than
// one model-sized vector.
func TestDPStepWarmStepAllocatesNoModelVector(t *testing.T) {
	train, _, err := datasets.SyntheticTabular(datasets.TabularConfig{
		Classes: 4, Train: 32, Test: 8, Features: 64, Sharpness: 0.7, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := model.NewClassifier(rand.New(rand.NewSource(7)), model.MLP, train.In, train.NumClasses)
	step := NewDPStep(1, 1, 4, rand.New(rand.NewSource(8)))
	opt := &nn.SGD{LR: 0.01, Momentum: 0.9}
	x, y := train.Batch(0, 8)
	step.Step(net, opt, x, y)
	step.Step(net, opt, x, y)

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step.Step(net, opt, x, y)
	}
	runtime.ReadMemStats(&after)
	modelBytes := 8 * uint64(nn.NumParams(net.Params()))
	if perStep := (after.TotalAlloc - before.TotalAlloc) / runs; perStep >= modelBytes {
		t.Fatalf("warmed DP step allocated %d B, at least one %d-byte model vector", perStep, modelBytes)
	}
}
