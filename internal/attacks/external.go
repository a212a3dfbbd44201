package attacks

import (
	"math"
	"math/rand"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// ObLabel is the label-only output attack (Yeom et al.): predict member
// exactly when the model classifies the sample correctly. Overfit models
// are right on members far more often than on non-members.
func ObLabel(net nn.Layer, members, nonMembers *datasets.Dataset) Result {
	score := func(d *datasets.Dataset) []float64 {
		f := ExtractFeatures(net, d, 64)
		out := make([]float64, len(f.Correct))
		for i, c := range f.Correct {
			if c {
				out[i] = 1
			}
		}
		return out
	}
	return newResult(score(members), score(nonMembers), 0.5)
}

// ObMALT is the Bayes-optimal loss-threshold attack (Sablayrolles et al.,
// "MALT"): predict member when the sample's loss falls below a threshold.
// The threshold is chosen attacker-optimally over the evaluation sets,
// matching the attack's Bayes-optimality framing.
func ObMALT(net nn.Layer, members, nonMembers *datasets.Dataset) Result {
	ms := negate(lossesOf(net, members))
	ns := negate(lossesOf(net, nonMembers))
	return ThresholdResult(ms, ns)
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// ObCalibrated is the difficulty-calibrated loss attack (Watson et al.,
// in the lineage of Carlini et al.'s first-principles critique): instead
// of thresholding the raw loss, it thresholds the GAP between a sample's
// loss under the target and under a shadow model trained on disjoint data
// from the same distribution. Intrinsically hard samples have high loss
// everywhere; members are the samples the target fits unusually well
// relative to their difficulty.
func ObCalibrated(net nn.Layer, members, nonMembers *datasets.Dataset,
	shadow ShadowBundle) Result {
	score := func(d *datasets.Dataset) []float64 {
		target := lossesOf(net, d)
		reference := lossesOf(shadow.Net, d)
		out := make([]float64, len(target))
		for i := range out {
			out[i] = reference[i] - target[i] // high ⇒ easier on target ⇒ member
		}
		return out
	}
	return ThresholdResult(score(members), score(nonMembers))
}

// ObNN is the shadow-model attack with a neural attack head (Shokri et
// al., Salem et al.): an attack network is trained to tell the shadow
// model's member outputs from its non-member outputs — represented as the
// top-3 sorted softmax probabilities — and then applied to the target.
func ObNN(net nn.Layer, members, nonMembers *datasets.Dataset,
	shadow ShadowBundle, rng *rand.Rand) Result {
	const topK = 3

	repr := func(model nn.Layer, d *datasets.Dataset) [][]float64 {
		f := ExtractFeatures(model, d, 64)
		out := make([][]float64, len(f.Probs))
		for i, p := range f.Probs {
			out[i] = sortedTopK(p, topK)
		}
		return out
	}

	// Train the attack network on the shadow bundle.
	trainX := append(repr(shadow.Net, shadow.Members), repr(shadow.Net, shadow.NonMembers)...)
	trainY := make([]int, len(trainX))
	for i := 0; i < shadow.Members.Len(); i++ {
		trainY[i] = 1
	}
	attack := nn.NewSequential(
		nn.NewDense(rng, topK, 32),
		nn.ReLU{},
		nn.NewDense(rng, 32, 2),
	)
	opt := nn.NewAdam(5e-3)
	x := tensor.New(len(trainX), topK)
	for i, f := range trainX {
		copy(x.Data[i*topK:], f)
	}
	for e := 0; e < 150; e++ {
		nn.ZeroGrads(attack.Params())
		logits, cache := attack.Forward(x, true)
		res := nn.SoftmaxCrossEntropy(logits, trainY)
		attack.Backward(cache, res.Grad)
		opt.Step(attack.Params())
	}

	// Apply to the target model's outputs.
	score := func(d *datasets.Dataset) []float64 {
		feats := repr(net, d)
		xt := tensor.New(len(feats), topK)
		for i, f := range feats {
			copy(xt.Data[i*topK:], f)
		}
		logits, _ := attack.Forward(xt, false)
		probs := nn.Softmax(logits)
		out := make([]float64, len(feats))
		for i := range out {
			out[i] = probs.At(i, 1)
		}
		return out
	}
	return newResult(score(members), score(nonMembers), 0.5)
}

// ObBlindMI is the differential-comparison attack (Hui et al., NDSS'21),
// in its DIFF-w/o form: the attacker generates sure non-members (random
// probe inputs), embeds everything through the target's softmax layer, and
// iteratively moves samples out of the suspected-member set whenever doing
// so increases the distance between the two sets' embedding means — the
// differential comparison. Samples still in the member set at convergence
// are predicted members.
func ObBlindMI(net nn.Layer, members, nonMembers *datasets.Dataset, rng *rand.Rand) Result {
	embed := func(d *datasets.Dataset) [][]float64 {
		f := ExtractFeatures(net, d, 64)
		out := make([][]float64, len(f.Probs))
		for i, p := range f.Probs {
			cp := append([]float64(nil), p...)
			// Sorted probabilities make the embedding label-agnostic.
			sortDescending(cp)
			out[i] = cp
		}
		return out
	}

	// Sure non-members: uniform-noise probes of the same shape.
	probe := members.Clone()
	probe.X.RandUniform(rng, 0, 1)
	nonEmb := embed(probe)

	targets := append(embed(members), embed(nonMembers)...)
	inMember := make([]bool, len(targets))
	for i := range inMember {
		inMember[i] = true
	}

	const maxIters = 10
	for it := 0; it < maxIters; it++ {
		moved := false
		base := mmdLinear(nonEmb, selectEmb(targets, inMember, true))
		for i := range targets {
			if !inMember[i] {
				continue
			}
			inMember[i] = false
			with := mmdLinear(append(nonEmb, targets[i]), selectEmb(targets, inMember, true))
			if with > base {
				// Moving i to the non-member side sharpened the split.
				moved = true
				base = with
			} else {
				inMember[i] = true
			}
		}
		if !moved {
			break
		}
	}

	ms := make([]float64, members.Len())
	ns := make([]float64, nonMembers.Len())
	for i := range ms {
		if inMember[i] {
			ms[i] = 1
		}
	}
	for i := range ns {
		if inMember[members.Len()+i] {
			ns[i] = 1
		}
	}
	return newResult(ms, ns, 0.5)
}

func sortDescending(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func selectEmb(embs [][]float64, mask []bool, want bool) [][]float64 {
	var out [][]float64
	for i, e := range embs {
		if mask[i] == want {
			out = append(out, e)
		}
	}
	return out
}

// mmdLinear is the linear-kernel MMD: the distance between set means.
func mmdLinear(a, b [][]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	d := len(a[0])
	diff := make([]float64, d)
	for _, e := range a {
		for j := range diff {
			diff[j] += e[j] / float64(len(a))
		}
	}
	for _, e := range b {
		for j := range diff {
			diff[j] -= e[j] / float64(len(b))
		}
	}
	s := 0.0
	for _, v := range diff {
		s += v * v
	}
	return math.Sqrt(s)
}

// PbBayes is the parameter-based white-box attack (Leino & Fredrikson):
// per-sample features combine the model outputs (loss, confidence,
// entropy, correctness) with the L2 norm of the full parameter gradient —
// information only a white-box attacker has — and a Bayes-style classifier
// (logistic regression) fit on a shadow bundle scores membership.
func PbBayes(net nn.Layer, members, nonMembers *datasets.Dataset,
	shadow ShadowBundle, rng *rand.Rand) Result {
	feats := func(model nn.Layer, d *datasets.Dataset) [][]float64 {
		f := ExtractFeatures(model, d, 64)
		gn := GradientNorms(model, d)
		out := make([][]float64, d.Len())
		for i := range out {
			c := 0.0
			if f.Correct[i] {
				c = 1
			}
			out[i] = []float64{f.Loss[i], f.MaxProb[i], f.Entropy[i], gn[i], c}
		}
		return out
	}

	trainX := append(feats(shadow.Net, shadow.Members), feats(shadow.Net, shadow.NonMembers)...)
	trainY := make([]bool, len(trainX))
	for i := 0; i < shadow.Members.Len(); i++ {
		trainY[i] = true
	}
	clf := FitLogistic(trainX, trainY, 300, 0.2)

	score := func(d *datasets.Dataset) []float64 {
		fs := feats(net, d)
		out := make([]float64, len(fs))
		for i, f := range fs {
			out[i] = clf.Predict(f)
		}
		return out
	}
	return newResult(score(members), score(nonMembers), 0.5)
}
