package defenses

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

func easyData(t *testing.T, seed int64) (*datasets.Dataset, *datasets.Dataset) {
	t.Helper()
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 3, Train: 60, Test: 60, C: 1, H: 6, W: 6,
		Signal: 0.5, Noise: 0.15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func trainWith(t *testing.T, step fl.TrainStep, train *datasets.Dataset, epochs int) nn.Layer {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	net := model.NewClassifier(rng, model.VGG, train.In, train.NumClasses)
	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	cfg := fl.ClientConfig{BatchSize: 16}
	for e := 0; e < epochs; e++ {
		if _, err := fl.TrainEpochs(net, opt, step, train, cfg, rng); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestDPStepNoNoiseMatchesClippedDescent(t *testing.T) {
	train, _ := easyData(t, 1)
	rng := rand.New(rand.NewSource(2))
	step := NewDPStep(1000, 0, 1, rng) // huge clip, zero noise ≈ plain SGD
	x, y := train.Batch(0, 16)

	netA := model.NewClassifier(rand.New(rand.NewSource(3)), model.VGG, train.In, train.NumClasses)
	netB := model.NewClassifier(rand.New(rand.NewSource(3)), model.VGG, train.In, train.NumClasses)
	optA := &nn.SGD{LR: 0.05}
	optB := &nn.SGD{LR: 0.05}

	// Per-example averaging of per-example gradients equals the batch
	// gradient, so with no clipping and no noise the updates coincide.
	step.Step(netA, optA, x, y)
	fl.PlainStep{}.Step(netB, optB, x, y)

	pa := nn.FlattenParams(netA.Params())
	pb := nn.FlattenParams(netB.Params())
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-9 {
			t.Fatalf("DP(σ=0, C=∞) diverged from plain SGD at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestDPStepClipBoundsUpdateNorm(t *testing.T) {
	train, _ := easyData(t, 2)
	rng := rand.New(rand.NewSource(4))
	const clip = 0.01
	step := NewDPStep(clip, 0, 1, rng)
	net := model.NewClassifier(rand.New(rand.NewSource(5)), model.VGG, train.In, train.NumClasses)
	before := nn.FlattenParams(net.Params())
	opt := &nn.SGD{LR: 1.0}
	x, y := train.Batch(0, 8)
	step.Step(net, opt, x, y)
	after := nn.FlattenParams(net.Params())
	var sq float64
	for i := range before {
		d := after[i] - before[i]
		sq += d * d
	}
	// Mean of 8 clipped per-example grads has norm ≤ clip; lr=1.
	if norm := math.Sqrt(sq); norm > clip+1e-9 {
		t.Fatalf("DP update norm %v exceeds clip %v", norm, clip)
	}
}

func TestDPNoiseDestroysUtilityMonotonically(t *testing.T) {
	train, test := easyData(t, 3)
	rng := rand.New(rand.NewSource(6))
	accLow := fl.Evaluate(trainWith(t, NewDPStep(1.0, 0.05, 4, rng), train, 12), test, 32)
	accHigh := fl.Evaluate(trainWith(t, NewDPStep(1.0, 20.0, 4, rng), train, 12), test, 32)
	if accLow < 0.5 {
		t.Fatalf("low-noise DP accuracy %v, want ≥0.5 on easy data", accLow)
	}
	if accHigh > accLow-0.15 {
		t.Fatalf("high noise should hurt accuracy: low σ %v vs high σ %v", accLow, accHigh)
	}
}

func TestNoiseMultiplierForCalibration(t *testing.T) {
	s1 := NoiseMultiplierFor(1, 1e-5, 100)
	s8 := NoiseMultiplierFor(8, 1e-5, 100)
	s128 := NoiseMultiplierFor(128, 1e-5, 100)
	if !(s1 > s8 && s8 > s128) {
		t.Fatalf("σ should fall as ε grows: σ(1)=%v σ(8)=%v σ(128)=%v", s1, s8, s128)
	}
	if more := NoiseMultiplierFor(8, 1e-5, 1000); more <= s8 {
		t.Fatalf("σ should grow with steps: %v vs %v", more, s8)
	}
	if NoiseMultiplierFor(0, 1e-5, 10) != 0 || NoiseMultiplierFor(1, 0, 10) != 0 {
		t.Fatal("degenerate budgets should disable noise, not panic")
	}
}

func TestHDPSharedFrontendDeterministic(t *testing.T) {
	in := model.Input{C: 1, H: 6, W: 6}
	a := NewFrozenFeatures(42, in, 32)
	b := NewFrozenFeatures(42, in, 32)
	if !tensor.Equal(a.W, b.W, 0) {
		t.Fatal("same seed should give identical frozen frontends")
	}
	c := NewFrozenFeatures(43, in, 32)
	if tensor.Equal(a.W, c.W, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestHDPOnlyHeadIsTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := model.Input{C: 1, H: 6, W: 6}
	net := NewHDPClassifier(rng, 42, in, 32, 3)
	want := 32*3 + 3 // dense head only
	if got := nn.NumParams(net.Params()); got != want {
		t.Fatalf("HDP trainable params = %d, want %d", got, want)
	}
}

func TestHDPLearnsUnderDP(t *testing.T) {
	train, test := easyData(t, 8)
	rng := rand.New(rand.NewSource(9))
	net := NewHDPClassifier(rng, 42, train.In, 64, train.NumClasses)
	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	step := NewDPStep(1.0, 0.3, 4, rng)
	for e := 0; e < 20; e++ {
		if _, err := fl.TrainEpochs(net, opt, step, train, fl.ClientConfig{BatchSize: 16}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if acc := fl.Evaluate(net, test, 32); acc < 0.45 {
		t.Fatalf("HDP accuracy under DP noise = %v, want ≥0.45", acc)
	}
}

// TestHDPBeatsPlainDPAtSameNoise reproduces the paper's core HDP claim:
// at identical noise levels, training only a head over frozen features
// yields better accuracy than DP training of the full model.
func TestHDPBeatsPlainDPAtSameNoise(t *testing.T) {
	train, test := easyData(t, 10)
	rng := rand.New(rand.NewSource(11))
	const sigma = 1.2

	hdp := NewHDPClassifier(rng, 42, train.In, 64, train.NumClasses)
	hdpOpt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	hdpStep := NewDPStep(1.0, sigma, 4, rng)

	plain := model.NewClassifier(rand.New(rand.NewSource(12)), model.VGG, train.In, train.NumClasses)
	plainOpt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	plainStep := NewDPStep(1.0, sigma, 4, rng)

	cfg := fl.ClientConfig{BatchSize: 16}
	for e := 0; e < 15; e++ {
		if _, err := fl.TrainEpochs(hdp, hdpOpt, hdpStep, train, cfg, rng); err != nil {
			t.Fatal(err)
		}
		if _, err := fl.TrainEpochs(plain, plainOpt, plainStep, train, cfg, rng); err != nil {
			t.Fatal(err)
		}
	}
	hdpAcc := fl.Evaluate(hdp, test, 32)
	plainAcc := fl.Evaluate(plain, test, 32)
	if hdpAcc <= plainAcc {
		t.Fatalf("HDP (%v) should beat plain DP (%v) at σ=%v", hdpAcc, plainAcc, sigma)
	}
}

func TestAdvRegLearnsAndPenalizes(t *testing.T) {
	train, test := easyData(t, 13)
	ref := test.Clone()
	rng := rand.New(rand.NewSource(14))
	step := NewAdvRegStep(0.5, ref, train.NumClasses, rng)
	net := trainWith(t, step, train, 15)
	if acc := fl.Evaluate(net, test, 32); acc < 0.45 {
		t.Fatalf("AdvReg accuracy = %v, want ≥0.45", acc)
	}
}

func TestAdvRegHighLambdaHurtsFit(t *testing.T) {
	// The privacy/utility trade-off: a crushing λ keeps the model from
	// fitting its own training data, while a mild λ fits fine.
	train, test := easyData(t, 15)
	ref := test.Clone()
	rng := rand.New(rand.NewSource(16))
	low := fl.Evaluate(trainWith(t, NewAdvRegStep(0.1, ref.Clone(), train.NumClasses, rng), train, 15), train, 32)
	high := fl.Evaluate(trainWith(t, NewAdvRegStep(50, ref.Clone(), train.NumClasses, rng), train, 15), train, 32)
	if high >= low-0.05 {
		t.Fatalf("λ=50 train accuracy (%v) should fall well below λ=0.1's (%v)", high, low)
	}
}

func TestMixupMMDLearns(t *testing.T) {
	train, test := easyData(t, 17)
	ref := test.Clone()
	rng := rand.New(rand.NewSource(18))
	step := NewMixupMMDStep(1.0, 0.4, ref, train.NumClasses, rng)
	net := trainWith(t, step, train, 18)
	if acc := fl.Evaluate(net, test, 32); acc < 0.45 {
		t.Fatalf("MixupMMD accuracy = %v, want ≥0.45", acc)
	}
}

func TestMixupMMDPullsOutputsTogether(t *testing.T) {
	// Train one model with µ=0 and one with large µ; the mean softmax
	// distance between member and reference outputs must shrink.
	train, test := easyData(t, 19)
	ref := test.Clone()
	rng := rand.New(rand.NewSource(20))

	dist := func(net nn.Layer) float64 {
		mx, _ := train.Batch(0, train.Len())
		rx, _ := ref.Batch(0, ref.Len())
		ml, _ := net.Forward(mx, false)
		rl, _ := net.Forward(rx, false)
		mp := nn.Softmax(ml)
		rp := nn.Softmax(rl)
		k := mp.Shape[1]
		diff := make([]float64, k)
		for i := 0; i < mp.Shape[0]; i++ {
			for j := 0; j < k; j++ {
				diff[j] += mp.Data[i*k+j]/float64(mp.Shape[0]) - rp.Data[i*k+j]/float64(rp.Shape[0])
			}
		}
		s := 0.0
		for _, d := range diff {
			s += d * d
		}
		return math.Sqrt(s)
	}

	noMMD := trainWith(t, NewMixupMMDStep(0, 0.4, ref.Clone(), train.NumClasses, rng), train, 15)
	withMMD := trainWith(t, NewMixupMMDStep(25, 0.4, ref.Clone(), train.NumClasses, rng), train, 15)
	if d0, d1 := dist(noMMD), dist(withMMD); d1 >= d0 {
		t.Fatalf("MMD penalty should shrink output gap: µ=0 gives %v, µ=25 gives %v", d0, d1)
	}
}

func TestRelaxLossKeepsLossNearTarget(t *testing.T) {
	train, _ := easyData(t, 21)
	rng := rand.New(rand.NewSource(22))
	const omega = 0.8

	netPlain := model.NewClassifier(rand.New(rand.NewSource(23)), model.VGG, train.In, train.NumClasses)
	netRelax := model.NewClassifier(rand.New(rand.NewSource(23)), model.VGG, train.In, train.NumClasses)
	optP := &nn.SGD{LR: 0.05, Momentum: 0.9}
	optR := &nn.SGD{LR: 0.05, Momentum: 0.9}
	relax := NewRelaxLossStep(omega)
	cfg := fl.ClientConfig{BatchSize: 16}
	for e := 0; e < 25; e++ {
		if _, err := fl.TrainEpochs(netPlain, optP, nil, train, cfg, rng); err != nil {
			t.Fatal(err)
		}
		if _, err := fl.TrainEpochs(netRelax, optR, relax, train, cfg, rng); err != nil {
			t.Fatal(err)
		}
	}
	plainLoss := fl.MeanLoss(netPlain, train, 32)
	relaxLoss := fl.MeanLoss(netRelax, train, 32)
	if relaxLoss <= plainLoss {
		t.Fatalf("RelaxLoss train loss (%v) should stay above plain training's (%v)",
			relaxLoss, plainLoss)
	}
	if relaxLoss > 3*omega {
		t.Fatalf("RelaxLoss train loss %v drifted far above target ω=%v", relaxLoss, omega)
	}
}

func TestRelaxLossZeroOmegaIsPlainDescent(t *testing.T) {
	train, _ := easyData(t, 24)
	x, y := train.Batch(0, 16)
	netA := model.NewClassifier(rand.New(rand.NewSource(25)), model.VGG, train.In, train.NumClasses)
	netB := model.NewClassifier(rand.New(rand.NewSource(25)), model.VGG, train.In, train.NumClasses)
	NewRelaxLossStep(0).Step(netA, &nn.SGD{LR: 0.05}, x, y)
	fl.PlainStep{}.Step(netB, &nn.SGD{LR: 0.05}, x, y)
	pa, pb := nn.FlattenParams(netA.Params()), nn.FlattenParams(netB.Params())
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-12 {
			t.Fatal("ω=0 RelaxLoss should match plain descent while loss > 0")
		}
	}
}
