package attacks

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// fixture holds an overfit target model, a shadow bundle from the same
// distribution, and member/non-member evaluation sets. Building it is
// expensive, so tests share one instance.
type fixture struct {
	target     nn.Layer
	shadow     ShadowBundle
	members    *datasets.Dataset
	nonMembers *datasets.Dataset
	in         model.Input
	classes    int
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
			Classes: 10, Train: 160, Test: 160, C: 3, H: 8, W: 8,
			Signal: 0.4, Noise: 0.5, Seed: 31,
		})
		if err != nil {
			panic(err)
		}
		targetTrain, shadowTrain := train.Split(80)
		targetTest, shadowTest := test.Split(80)

		rng := rand.New(rand.NewSource(1))
		build := func() nn.Layer {
			return model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG,
				train.In, train.NumClasses)
		}
		target := build()
		opt := &nn.SGD{LR: 0.04, Momentum: 0.9}
		for e := 0; e < 60; e++ {
			if _, err := fl.TrainEpochs(target, opt, nil, targetTrain, fl.ClientConfig{BatchSize: 16}, rng); err != nil {
				panic(err)
			}
		}
		shadow, err := TrainShadow(build, shadowTrain, shadowTest, 60, 0.04,
			rand.New(rand.NewSource(3)))
		if err != nil {
			panic(err)
		}
		fix = &fixture{
			target:     target,
			shadow:     shadow,
			members:    targetTrain,
			nonMembers: targetTest,
			in:         train.In,
			classes:    train.NumClasses,
		}
	})
	return fix
}

func freshNet(f *fixture) nn.Layer {
	return model.NewClassifier(rand.New(rand.NewSource(99)), model.VGG, f.in, f.classes)
}

func TestThresholdResultSeparable(t *testing.T) {
	r := ThresholdResult([]float64{3, 4, 5}, []float64{0, 1, 2})
	if r.Accuracy() != 1 {
		t.Fatalf("separable threshold accuracy = %v, want 1", r.Accuracy())
	}
	if r.AUC() != 1 {
		t.Fatalf("separable AUC = %v, want 1", r.AUC())
	}
}

func TestThresholdResultOverlapping(t *testing.T) {
	r := ThresholdResult([]float64{0, 1}, []float64{0, 1})
	if acc := r.Accuracy(); acc < 0.45 || acc > 0.80 {
		t.Fatalf("identical-distribution accuracy = %v, want ≈0.5-0.75", acc)
	}
}

func TestExtractFeaturesShapes(t *testing.T) {
	f := getFixture(t)
	feats := ExtractFeatures(f.target, f.members, 32)
	if len(feats.Loss) != f.members.Len() {
		t.Fatalf("got %d losses for %d samples", len(feats.Loss), f.members.Len())
	}
	for i := range feats.Loss {
		if feats.Loss[i] < 0 {
			t.Fatalf("loss[%d] = %v < 0", i, feats.Loss[i])
		}
		if feats.MaxProb[i] < 1.0/float64(f.classes)-1e-9 || feats.MaxProb[i] > 1 {
			t.Fatalf("maxprob[%d] = %v out of range", i, feats.MaxProb[i])
		}
		if feats.Entropy[i] < -1e-9 || feats.Entropy[i] > math.Log(float64(f.classes))+1e-9 {
			t.Fatalf("entropy[%d] = %v out of range", i, feats.Entropy[i])
		}
	}
}

func TestSortedTopK(t *testing.T) {
	got := sortedTopK([]float64{0.1, 0.6, 0.3}, 3)
	want := []float64{0.6, 0.3, 0.1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedTopK = %v, want %v", got, want)
		}
	}
	if padded := sortedTopK([]float64{0.9, 0.1}, 3); padded[2] != 0 {
		t.Fatalf("short vectors should pad with zeros, got %v", padded)
	}
}

func TestLogisticLearnsSeparableFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	var ys []bool
	for i := 0; i < 200; i++ {
		member := i%2 == 0
		base := 0.0
		if member {
			base = 2
		}
		xs = append(xs, []float64{base + rng.NormFloat64()*0.3, rng.NormFloat64()})
		ys = append(ys, member)
	}
	clf := FitLogistic(xs, ys, 200, 0.3)
	correct := 0
	for i, x := range xs {
		if (clf.Predict(x) >= 0.5) == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Fatalf("logistic accuracy = %v, want ≥0.95 on separable data", acc)
	}
}

// TestExternalAttacksBeatChanceOnOverfitModel verifies every external
// attack extracts membership signal from an overfit undefended model —
// the precondition for all of the paper's defense evaluations.
func TestExternalAttacksBeatChanceOnOverfitModel(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(5))

	tests := []struct {
		name string
		run  func() Result
		min  float64
	}{
		{"Ob-Label", func() Result { return ObLabel(f.target, f.members, f.nonMembers) }, 0.60},
		{"Ob-MALT", func() Result { return ObMALT(f.target, f.members, f.nonMembers) }, 0.65},
		{"Ob-NN", func() Result { return ObNN(f.target, f.members, f.nonMembers, f.shadow, rng) }, 0.55},
		{"Ob-BlindMI", func() Result { return ObBlindMI(f.target, f.members, f.nonMembers, rng) }, 0.55},
		{"Pb-Bayes", func() Result { return PbBayes(f.target, f.members, f.nonMembers, f.shadow, rng) }, 0.60},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := tt.run()
			if acc := r.Accuracy(); acc < tt.min {
				t.Fatalf("%s accuracy = %v, want ≥ %v on overfit model", tt.name, acc, tt.min)
			}
		})
	}
}

// TestAttacksNearChanceOnUntrainedModel: an untrained model carries no
// membership signal, so every attack must hover near 0.5 (DESIGN.md
// invariant).
func TestAttacksNearChanceOnUntrainedModel(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(6))
	blank := freshNet(f)

	tests := []struct {
		name string
		run  func() Result
	}{
		{"Ob-Label", func() Result { return ObLabel(blank, f.members, f.nonMembers) }},
		{"Ob-MALT", func() Result { return ObMALT(blank, f.members, f.nonMembers) }},
		{"Pb-Bayes", func() Result { return PbBayes(blank, f.members, f.nonMembers, f.shadow, rng) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := tt.run()
			// Oracle-threshold attacks retain a small optimism bias, so
			// allow a loose band around 0.5.
			if acc := r.Accuracy(); acc > 0.68 {
				t.Fatalf("%s accuracy = %v on an untrained model, want ≈0.5", tt.name, acc)
			}
		})
	}
}

func TestObMALTPerfectOnSyntheticGap(t *testing.T) {
	// Direct unit check of the threshold logic via a hand-built loss gap.
	ms := []float64{1, 1, 1}
	ns := []float64{0, 0, 0}
	r := ThresholdResult(ms, ns)
	if r.Accuracy() != 1 {
		t.Fatalf("accuracy = %v, want 1", r.Accuracy())
	}
}

func TestInternalPassiveAttack(t *testing.T) {
	f := getFixture(t)
	// Run a 2-client federation in the overfit regime, recording the last
	// rounds like the paper's malicious server.
	shards := datasets.PartitionIID(f.members, 2, rand.New(rand.NewSource(7)))
	build := func() nn.Layer {
		return model.NewClassifier(rand.New(rand.NewSource(8)), model.VGG, f.in, f.classes)
	}
	const rounds = 30
	rec := &fl.HistoryRecorder{KeepParams: true,
		OnlyRounds: map[int]bool{rounds - 3: true, rounds - 2: true, rounds - 1: true}}
	clients := make([]fl.Client, 2)
	var initial []float64
	for i := range clients {
		net := build()
		if initial == nil {
			initial = nn.FlattenParams(net.Params())
		}
		clients[i] = fl.NewLegacyClient(i, net, shards[i], fl.ClientConfig{
			BatchSize: 16, LocalEpochs: 2, LR: func(int) float64 { return 0.04 }, Momentum: 0.9,
		}, nil, rand.New(rand.NewSource(int64(40+i))))
	}
	srv := fl.NewServer(initial, clients...)
	srv.Observers = append(srv.Observers, rec)
	if err := srv.Run(rounds); err != nil {
		t.Fatal(err)
	}

	attack := InternalPassive{BuildNet: build, VictimIndex: 0}
	res, err := attack.Run(rec.KeptRounds(), shards[0], f.nonMembers.Subset(rangeInts(shards[0].Len())),
		rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(); acc < 0.55 {
		t.Fatalf("internal passive accuracy = %v, want ≥0.55 in overfit regime", acc)
	}
}

func TestInternalPassiveNeedsRounds(t *testing.T) {
	f := getFixture(t)
	attack := InternalPassive{BuildNet: func() nn.Layer { return freshNet(f) }}
	if _, err := attack.Run(nil, f.members, f.nonMembers, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error with no observed rounds")
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestActiveAttacker(t *testing.T) {
	f := getFixture(t)
	shards := datasets.PartitionIID(f.members, 2, rand.New(rand.NewSource(10)))
	build := func() nn.Layer {
		return model.NewClassifier(rand.New(rand.NewSource(11)), model.VGG, f.in, f.classes)
	}

	// Targets: victim's members plus an equal count of non-members.
	nTargets := 20
	targets := datasets.Concat(
		shards[0].Subset(rangeInts(nTargets)),
		f.nonMembers.Subset(rangeInts(nTargets)))

	const rounds = 24
	attacker := &ActiveAttacker{
		BuildNet:    build,
		Targets:     targets,
		NumMembers:  nTargets,
		VictimID:    0,
		StartRound:  rounds - 5,
		AscentLR:    0.05,
		AscentSteps: 2,
	}
	clients := make([]fl.Client, 2)
	var initial []float64
	for i := range clients {
		net := build()
		if initial == nil {
			initial = nn.FlattenParams(net.Params())
		}
		clients[i] = fl.NewLegacyClient(i, net, shards[i], fl.ClientConfig{
			BatchSize: 16, LocalEpochs: 2, LR: func(int) float64 { return 0.04 }, Momentum: 0.9,
		}, nil, rand.New(rand.NewSource(int64(50+i))))
	}
	srv := fl.NewServer(initial, clients...)
	srv.Alter = attacker.Alter
	srv.Observers = append(srv.Observers, attacker)
	if err := srv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	res, err := attacker.Result()
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(); acc < 0.6 {
		t.Fatalf("active attack accuracy = %v, want ≥0.6 (it is the strongest insider attack)", acc)
	}
}

func TestActiveAttackerNoObservations(t *testing.T) {
	a := &ActiveAttacker{}
	if _, err := a.Result(); err == nil {
		t.Fatal("expected error with no observations")
	}
	// A round whose aggregate holds no update from the victim (dropped as
	// invalid, or not sampled) records nothing; another client's update in
	// the victim's slot is not the victim's.
	a.VictimID = 1
	a.ObserveRound(0, nil, []fl.Update{{ClientID: 0}, {ClientID: 2}})
	if _, err := a.Result(); err == nil {
		t.Fatal("recorded a round without the victim's update")
	}
}

// cipFixture trains a single-client CIP federation (the paper's external
// worst case) for adaptive-attack tests.
type cipFixtureT struct {
	client     *core.Client
	evalModel  *core.CIPModel
	members    *datasets.Dataset
	nonMembers *datasets.Dataset
	shadow     *datasets.Dataset
}

var (
	cipOnce sync.Once
	cipFix  *cipFixtureT
)

func getCIPFixture(t *testing.T) *cipFixtureT {
	t.Helper()
	cipOnce.Do(func() {
		train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
			Classes: 10, Train: 80, Test: 160, C: 3, H: 8, W: 8,
			Signal: 0.4, Noise: 0.5, Seed: 77,
		})
		if err != nil {
			panic(err)
		}
		nonMembers, shadow := test.Split(80)

		cfg := core.TrainConfig{
			Alpha: 0.7, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02,
			BatchSize: 16, LR: func(int) float64 { return 0.04 }, Momentum: 0.9,
		}
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(12)), model.VGG, train.In, train.NumClasses)
		client := core.NewClient(0, dual, train, cfg, core.BlendSeed(5, 0), rand.New(rand.NewSource(13)))
		srv := fl.NewServer(nn.FlattenParams(dual.Params()), client)
		if err := srv.Run(30); err != nil {
			panic(err)
		}
		evalDual := core.NewDualChannelModel(rand.New(rand.NewSource(12)), model.VGG, train.In, train.NumClasses)
		if err := nn.SetFlatParams(evalDual.Params(), srv.Global()); err != nil {
			panic(err)
		}
		cipFix = &cipFixtureT{
			client:     client,
			evalModel:  core.NewCIPModel(evalDual, client.Perturbation().T, cfg.Alpha),
			members:    client.Data(), // the calibration split is NOT a member
			nonMembers: nonMembers,
			shadow:     shadow,
		}
	})
	return cipFix
}

func TestAdaptiveOptimization1(t *testing.T) {
	f := getCIPFixture(t)
	rng := rand.New(rand.NewSource(14))
	res := Optimization1(f.evalModel, f.shadow, f.members, f.nonMembers, 3, 0.02, rng)
	// The adaptive attack should do no better than modestly above chance —
	// and far worse than an attacker holding the true t.
	trueT := ObMALT(f.evalModel, f.members, f.nonMembers)
	if res.Accuracy() > trueT.Accuracy()+0.02 {
		t.Fatalf("adaptive t′ attack (%v) should not beat the true-t attack (%v)",
			res.Accuracy(), trueT.Accuracy())
	}
}

func TestAdaptiveKnowledge1SSIMMonotone(t *testing.T) {
	f := getCIPFixture(t)
	rng := rand.New(rand.NewSource(15))
	trueSeed := core.NewPerturbation(f.client.Perturbation().Seed, f.client.Perturbation().T.Shape, 0, 1).T

	_, sLow := Knowledge1(f.evalModel, trueSeed, 0.1, f.shadow, f.members, f.nonMembers, 2, 0.02, rng)
	_, sHigh := Knowledge1(f.evalModel, trueSeed, 0.9, f.shadow, f.members, f.nonMembers, 2, 0.02, rng)
	if !(sLow < sHigh) {
		t.Fatalf("achieved SSIMs should order with targets: %v vs %v", sLow, sHigh)
	}
	if math.Abs(sHigh-0.9) > 0.15 {
		t.Fatalf("achieved SSIM %v too far from target 0.9", sHigh)
	}
}

func TestAdaptiveKnowledge2(t *testing.T) {
	f := getCIPFixture(t)
	rng := rand.New(rand.NewSource(16))
	known, unknown := f.members.Split(f.members.Len() / 2)
	res := Knowledge2(f.evalModel, known, unknown, f.nonMembers.Subset(rangeInts(unknown.Len())), 3, 0.02, rng)
	trueT := ObMALT(f.evalModel, unknown, f.nonMembers.Subset(rangeInts(unknown.Len())))
	// Knowing part of the training data must not yield a BETTER attack than
	// holding the true t (§V-D: "the training data does not provide more
	// information than what the adversary obtains from the target model").
	if res.Accuracy() > trueT.Accuracy()+0.02 {
		t.Fatalf("partial-data attack (%v) should not beat the true-t attack (%v)",
			res.Accuracy(), trueT.Accuracy())
	}
}

func TestAdaptiveKnowledge3(t *testing.T) {
	f := getCIPFixture(t)
	// A substitute perturbation from a different seed.
	other := core.NewPerturbation(999, f.client.Perturbation().T.Shape, 0, 1)
	res := Knowledge3(f.evalModel, other.T, f.members, f.nonMembers)
	trueT := ObMALT(f.evalModel, f.members, f.nonMembers)
	if res.Accuracy() >= trueT.Accuracy() {
		t.Fatalf("substitute-t attack (%v) should underperform the true-t attack (%v)",
			res.Accuracy(), trueT.Accuracy())
	}
}

func TestAdaptiveKnowledge4Inverted(t *testing.T) {
	f := getCIPFixture(t)
	res := Knowledge4(f.evalModel, f.members, f.nonMembers)
	// The inverse attack commits to "high loss ⇒ member"; since CIP keeps
	// member zero-t losses below non-member losses, it lands at or below
	// chance (Table X).
	if acc := res.Accuracy(); acc > 0.58 {
		t.Fatalf("inverse MI accuracy = %v, want ≤ 0.58", acc)
	}
}

func TestOptimizeTPrimeImprovesShadowFit(t *testing.T) {
	f := getCIPFixture(t)
	rng := rand.New(rand.NewSource(17))
	tRand := f.evalModel.ZeroT()
	tRand.RandUniform(rng, 0, 1)
	before := fl.MeanLoss(f.evalModel.WithT(tRand), f.shadow, 64)
	tPrime := OptimizeTPrime(f.evalModel, tRand, f.shadow, 5, 0.02, rng)
	after := fl.MeanLoss(f.evalModel.WithT(tPrime), f.shadow, 64)
	if after >= before {
		t.Fatalf("optimizing t′ should reduce shadow loss: %v -> %v", before, after)
	}
}
