package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/metrics"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

func TestBlendAverageRecoversInput(t *testing.T) {
	// (C1 + C2)/2 == x whenever neither channel clips — the mechanism by
	// which the dual channel preserves the original sample's information.
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := r.Float64()
		x := tensor.New(2, 4)
		tp := tensor.New(4)
		// Keep x and t near 0.5 so no clipping occurs for any α ≤ 1.
		x.RandUniform(r, 0.45, 0.55)
		tp.RandUniform(r, 0.45, 0.55)
		b := Blend(x, tp, alpha, 0, 1)
		for i := range x.Data {
			if math.Abs((b.C1.Data[i]+b.C2.Data[i])/2-x.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestBlendChannelsFormula(t *testing.T) {
	x := tensor.FromSlice([]float64{0.5}, 1, 1)
	tp := tensor.FromSlice([]float64{0.7}, 1)
	b := Blend(x, tp, 0.5, 0, 1)
	// c1 = 0.5*0.5 + 0.5*0.7 = 0.6 ; c2 = 1.5*0.5 − 0.5*0.7 = 0.4.
	if math.Abs(b.C1.Data[0]-0.6) > 1e-12 || math.Abs(b.C2.Data[0]-0.4) > 1e-12 {
		t.Fatalf("blend = (%v, %v), want (0.6, 0.4)", b.C1.Data[0], b.C2.Data[0])
	}
	if !b.Pass1[0] || !b.Pass2[0] {
		t.Fatal("unclipped elements should pass gradient")
	}
}

func TestBlendClipsAndMasks(t *testing.T) {
	x := tensor.FromSlice([]float64{1.0}, 1, 1)
	tp := tensor.FromSlice([]float64{0.0}, 1)
	b := Blend(x, tp, 0.5, 0, 1)
	// c2 = 1.5*1.0 − 0 = 1.5 → clipped to 1, mask blocked.
	if b.C2.Data[0] != 1 {
		t.Fatalf("c2 = %v, want clipped to 1", b.C2.Data[0])
	}
	if b.Pass2[0] {
		t.Fatal("clipped element must not pass gradient")
	}
}

func TestPerturbationDeterministicBySeed(t *testing.T) {
	a := NewPerturbation(5, []int{3, 2, 2}, 0, 1)
	b := NewPerturbation(5, []int{3, 2, 2}, 0, 1)
	c := NewPerturbation(6, []int{3, 2, 2}, 0, 1)
	if !tensor.Equal(a.T, b.T, 0) {
		t.Fatal("same seed produced different perturbations")
	}
	if tensor.Equal(a.T, c.T, 0) {
		t.Fatal("different seeds produced identical perturbations")
	}
	if a.T.Min() < 0 || a.T.Max() > 1 {
		t.Fatal("perturbation out of [0,1]")
	}
}

func TestBlendSeedDistinctPerClient(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		s := BlendSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate seed for client %d", i)
		}
		seen[s] = true
	}
}

var testIn = model.Input{C: 2, H: 6, W: 6}

func newTestDual(seed int64, classes int) *DualChannelModel {
	return NewDualChannelModel(rand.New(rand.NewSource(seed)), model.VGG, testIn, classes)
}

func TestDualChannelShapesAndParamOverhead(t *testing.T) {
	dual := newTestDual(1, 5)
	x1 := tensor.New(3, 2, 6, 6)
	x2 := tensor.New(3, 2, 6, 6)
	logits, _ := dual.Forward(x1, x2, false)
	if logits.Shape[0] != 3 || logits.Shape[1] != 5 {
		t.Fatalf("dual logits shape = %v, want [3 5]", logits.Shape)
	}

	single := model.NewClassifier(rand.New(rand.NewSource(1)), model.VGG, testIn, 5)
	diff := dual.NumParams() - single.NumParams()
	// The only extra parameters are the head's second half: FeatDim*classes.
	want := dual.Backbone.FeatDim * 5
	if diff != want {
		t.Fatalf("dual-channel overhead = %d params, want %d", diff, want)
	}
	// Overhead stays a modest fraction of the model. (Table XI reports
	// +0.87% at ResNet-50 scale, where the head is a vanishing share of
	// 24M parameters; at tiny-backbone scale the same head-only overhead
	// is proportionally larger.)
	if rel := float64(diff) / float64(single.NumParams()); rel > 0.3 {
		t.Fatalf("relative overhead %v unexpectedly large", rel)
	}
}

func TestCIPModelGradCheckParamsAndInput(t *testing.T) {
	dual := newTestDual(2, 3)
	pert := NewPerturbation(7, []int{2, 6, 6}, 0.3, 0.7)
	m := NewCIPModel(dual, pert.T, 0.4)
	x := tensor.New(2, 2, 6, 6)
	x.RandUniform(rand.New(rand.NewSource(3)), 0.35, 0.65) // stay off clip boundaries
	labels := []int{0, 2}
	if rel := nn.GradCheck(m, x, labels, 131); rel > 1e-3 {
		t.Fatalf("CIPModel grad check max relative error %v", rel)
	}
}

func TestCIPModelTGradMatchesFiniteDifference(t *testing.T) {
	dual := newTestDual(4, 3)
	pert := NewPerturbation(8, []int{2, 6, 6}, 0.3, 0.7)
	m := NewCIPModel(dual, pert.T, 0.4)
	x := tensor.New(2, 2, 6, 6)
	x.RandUniform(rand.New(rand.NewSource(5)), 0.35, 0.65)
	labels := []int{1, 2}

	m.ZeroTGrad()
	logits, cache := m.Forward(x, true)
	res := nn.SoftmaxCrossEntropy(logits, labels)
	m.BackwardT(cache, res.Grad)

	lossAt := func() float64 {
		lg, _ := m.Forward(x, true)
		return nn.SoftmaxCrossEntropy(lg, labels).Loss
	}
	const h = 1e-5
	maxRel := 0.0
	for j := 0; j < m.T.Size(); j += 17 {
		orig := m.T.Data[j]
		m.T.Data[j] = orig + h
		lp := lossAt()
		m.T.Data[j] = orig - h
		lm := lossAt()
		m.T.Data[j] = orig
		numeric := (lp - lm) / (2 * h)
		analytic := m.TGrad.Data[j]
		denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
		if rel := math.Abs(numeric-analytic) / denom; rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 1e-3 {
		t.Fatalf("TGrad finite-difference max relative error %v", maxRel)
	}
}

func testData(t *testing.T, seed int64) (*datasets.Dataset, *datasets.Dataset) {
	t.Helper()
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Train: 64, Test: 64, C: 2, H: 6, W: 6,
		Signal: 0.5, Noise: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestStepIReducesBlendedLoss(t *testing.T) {
	train, _ := testData(t, 1)
	dual := NewDualChannelModel(rand.New(rand.NewSource(1)), model.VGG, train.In, train.NumClasses)
	pert := NewPerturbation(2, []int{2, 6, 6}, 0, 1)
	m := NewCIPModel(dual, pert.T, 0.5)
	cfg := TrainConfig{Alpha: 0.5, PerturbLR: 0.05, BatchSize: 16, LambdaT: 1e-6}
	rng := rand.New(rand.NewSource(3))

	first := StepIGeneratePerturbation(m, train, cfg, rng)
	var last float64
	for i := 0; i < 10; i++ {
		last = StepIGeneratePerturbation(m, train, cfg, rng)
	}
	if last >= first {
		t.Fatalf("Step I did not reduce blended loss: %v -> %v", first, last)
	}
	if m.T.Min() < 0 || m.T.Max() > 1 {
		t.Fatalf("Step I left t outside [0,1]: [%v, %v]", m.T.Min(), m.T.Max())
	}
}

func TestStepIIReducesBlendedLoss(t *testing.T) {
	train, _ := testData(t, 2)
	dual := NewDualChannelModel(rand.New(rand.NewSource(4)), model.VGG, train.In, train.NumClasses)
	pert := NewPerturbation(5, []int{2, 6, 6}, 0, 1)
	m := NewCIPModel(dual, pert.T, 0.5)
	cfg := TrainConfig{Alpha: 0.5, BatchSize: 16, LambdaM: 1e-6}
	opt := &nn.SGD{LR: 0.08, Momentum: 0.9}
	rng := rand.New(rand.NewSource(6))

	first := StepIILearnModel(m, train, cfg, opt, rng)
	var last float64
	for i := 0; i < 12; i++ {
		last = StepIILearnModel(m, train, cfg, opt, rng)
	}
	if last > 0.7*first {
		t.Fatalf("Step II did not fit blended data: %v -> %v", first, last)
	}
}

// lossAUC scores the canonical loss-threshold MI attack: lower loss ⇒ more
// likely member; returns the attacker's ROC-AUC.
func lossAUC(net nn.Layer, members, nonMembers *datasets.Dataset) float64 {
	ml := fl.Losses(net, members, 64)
	nl := fl.Losses(net, nonMembers, 64)
	scores := make([]float64, 0, len(ml)+len(nl))
	labels := make([]bool, 0, len(ml)+len(nl))
	for _, l := range ml {
		scores = append(scores, -l)
		labels = append(labels, true)
	}
	for _, l := range nl {
		scores = append(scores, -l)
		labels = append(labels, false)
	}
	return metrics.ROCAUC(scores, labels)
}

func TestCIPFederationLearnsAndShiftsOriginalLoss(t *testing.T) {
	// Overfit regime (hard data, few samples) — where MI attacks bite and
	// the paper's Fig. 1 shift is visible.
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 8, Train: 96, Test: 96, C: 2, H: 6, W: 6,
		Signal: 0.35, Noise: 0.45, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	shards := datasets.PartitionIID(train, k, rand.New(rand.NewSource(7)))
	cfg := TrainConfig{
		Alpha: 0.9, LambdaT: 1e-6, LambdaM: 0.3,
		PerturbLR: 0.02, BatchSize: 16,
		LR: func(int) float64 { return 0.05 }, Momentum: 0.9,
	}
	clients := make([]fl.Client, k)
	cipClients := make([]*Client, k)
	var initial []float64
	for i := 0; i < k; i++ {
		dual := NewDualChannelModel(rand.New(rand.NewSource(10)), model.VGG, train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		c := NewClient(i, dual, shards[i], cfg, BlendSeed(99, i), rand.New(rand.NewSource(int64(20+i))))
		clients[i] = c
		cipClients[i] = c
	}
	srv := fl.NewServer(initial, clients...)
	if err := srv.Run(35); err != nil {
		t.Fatal(err)
	}

	// Load the global parameters into an evaluation dual model.
	evalDual := NewDualChannelModel(rand.New(rand.NewSource(10)), model.VGG, train.In, train.NumClasses)
	if err := nn.SetFlatParams(evalDual.Params(), srv.Global()); err != nil {
		t.Fatal(err)
	}

	c0 := cipClients[0]
	mTrue := NewCIPModel(evalDual, c0.Perturbation().T, cfg.Alpha)
	mZero := mTrue.WithT(mTrue.ZeroT())

	// The model must have memorized the blended members (overfit regime):
	// training accuracy under the true t well above test accuracy.
	trainAcc := fl.Evaluate(mTrue, c0.Data(), 64)
	testAcc := fl.Evaluate(mTrue, test, 64)
	if trainAcc < testAcc+0.2 {
		t.Fatalf("expected overfit regime, got train=%v test=%v", trainAcc, testAcc)
	}

	// Defense signature (Fig. 1 / Theorem 1): the loss-threshold attack
	// separates members well when it holds the secret t, but collapses
	// toward random guessing when it queries without t.
	aucTrue := lossAUC(mTrue, c0.Data(), test)
	aucZero := lossAUC(mZero, c0.Data(), test)
	if aucZero > 0.68 {
		t.Fatalf("attack AUC without t = %v, want ≤0.68 (near random)", aucZero)
	}
	if aucTrue < aucZero+0.1 {
		t.Fatalf("attack with the secret t (AUC %v) should far exceed without (AUC %v)",
			aucTrue, aucZero)
	}

	// Members queried without t must look lossier than with t (the shift).
	if lz, lt := fl.MeanLoss(mZero, c0.Data(), 64), fl.MeanLoss(mTrue, c0.Data(), 64); lz <= lt {
		t.Fatalf("zero-t member loss %v should exceed true-t member loss %v", lz, lt)
	}
}

func TestWithTSharesParameters(t *testing.T) {
	dual := newTestDual(11, 3)
	pert := NewPerturbation(12, []int{2, 6, 6}, 0, 1)
	m := NewCIPModel(dual, pert.T, 0.5)
	m2 := m.WithT(m.ZeroT())
	p1 := m.Params()
	p2 := m2.Params()
	if len(p1) != len(p2) {
		t.Fatal("WithT changed parameter count")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("WithT must share the underlying parameters")
		}
	}
}

func TestAdvantageRatioBound(t *testing.T) {
	// Theorem 1: when the guessed-perturbation loss exceeds the true one,
	// ε ≤ 1 — the adaptive attacker cannot gain advantage.
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lossTrue := r.Float64() * 3
		lossGuessed := lossTrue + r.Float64()*3 // ≥ lossTrue
		temp := 0.5 + r.Float64()*2
		eps := AdvantageRatio(lossTrue, lossGuessed, temp)
		return eps <= 1+1e-12 && eps > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	if got := AdvantageRatio(1, 1, 2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal losses should give ε=1, got %v", got)
	}
}

func TestCIPClientImplementsFLClient(t *testing.T) {
	train, _ := testData(t, 4)
	dual := newTestDual(14, train.NumClasses)
	c := NewClient(3, dual, train, TrainConfig{Alpha: 0.3}, 77, rand.New(rand.NewSource(15)))
	if c.ID() != 3 {
		t.Fatal("client ID accessor wrong")
	}
	// 10% of the shard is held out for loss-target calibration.
	wantTrain := train.Len() - train.Len()/10
	if c.NumSamples() != wantTrain {
		t.Fatalf("NumSamples = %d, want %d (shard minus calibration split)",
			c.NumSamples(), wantTrain)
	}
	if c.Calibration() == nil || c.Calibration().Len() != train.Len()/10 {
		t.Fatal("calibration split missing or wrong size")
	}
	global := nn.FlattenParams(dual.Params())
	u, err := c.TrainLocal(0, global)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Params) != len(global) {
		t.Fatalf("update size %d, want %d", len(u.Params), len(global))
	}
	if u.TrainLoss <= 0 {
		t.Fatalf("train loss = %v, want > 0", u.TrainLoss)
	}
}
