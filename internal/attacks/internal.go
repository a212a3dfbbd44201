package attacks

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// InternalPassive is the malicious-server passive attack (Nasr et al.):
// the server records the victim client's local model at several of the
// last training rounds (Table I's "attacking iterations"), computes each
// candidate sample's loss under every observed snapshot, and fits an
// attack model on a supervised subset whose membership it knows, then
// scores the rest. Multi-round observation is what makes the FL insider
// strictly stronger than a one-shot external attacker.
type InternalPassive struct {
	// BuildNet constructs an architecture into which observed parameter
	// vectors are loaded (it must match the clients' architecture).
	BuildNet func() nn.Layer
	// VictimIndex selects which client's local updates to use.
	VictimIndex int
	// KnownFraction is the share of each evaluation set whose membership
	// the attacker already knows and trains its attack model on
	// (default 0.5, Nasr's supervised setting).
	KnownFraction float64
}

// Run executes the attack over the recorded rounds.
func (a InternalPassive) Run(kept []fl.RoundRecord, members, nonMembers *datasets.Dataset,
	rng *rand.Rand) (Result, error) {
	if len(kept) == 0 {
		return Result{}, fmt.Errorf("attacks: internal passive attack needs observed rounds")
	}
	frac := a.KnownFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}

	net := a.BuildNet()
	// Per-sample loss under each observed snapshot of the victim's model.
	featuresOf := func(d *datasets.Dataset) ([][]float64, error) {
		feats := make([][]float64, d.Len())
		for i := range feats {
			feats[i] = make([]float64, 0, len(kept))
		}
		for _, rec := range kept {
			if a.VictimIndex >= len(rec.LocalParams) {
				return nil, fmt.Errorf("attacks: victim index %d out of range", a.VictimIndex)
			}
			if err := nn.SetFlatParams(net.Params(), rec.LocalParams[a.VictimIndex]); err != nil {
				return nil, fmt.Errorf("attacks: loading round %d params: %w", rec.Round, err)
			}
			losses := fl.Losses(net, d, 64)
			for i, l := range losses {
				feats[i] = append(feats[i], l)
			}
		}
		return feats, nil
	}

	mf, err := featuresOf(members)
	if err != nil {
		return Result{}, err
	}
	nf, err := featuresOf(nonMembers)
	if err != nil {
		return Result{}, err
	}

	// Supervised split: attacker trains on the known part, scores the rest.
	mSplit := int(float64(len(mf)) * frac)
	nSplit := int(float64(len(nf)) * frac)
	var trainX [][]float64
	var trainY []bool
	trainX = append(trainX, mf[:mSplit]...)
	for range mf[:mSplit] {
		trainY = append(trainY, true)
	}
	trainX = append(trainX, nf[:nSplit]...)
	for range nf[:nSplit] {
		trainY = append(trainY, false)
	}
	clf := FitLogistic(trainX, trainY, 300, 0.2)

	score := func(fs [][]float64) []float64 {
		out := make([]float64, len(fs))
		for i, f := range fs {
			out[i] = clf.Predict(f)
		}
		return out
	}
	return newResult(score(mf[mSplit:]), score(nf[nSplit:]), 0.5), nil
}

// ActiveAttacker is the malicious-server active attack (Nasr et al.) and,
// run in descent mode against CIP, the paper's adaptive Optimization-2.
// Each round from StartRound on, the server alters the model sent to the
// victim by running gradient steps on the attack's target samples
// (ascent for the classic attack, descent for Optimization-2), then
// watches the loss of those samples under the victim's returned local
// model. Members behave differently from non-members because the victim's
// local training only counteracts the alteration on samples it actually
// trains on.
type ActiveAttacker struct {
	// BuildNet constructs the architecture used to load/alter parameters.
	BuildNet func() nn.Layer
	// Targets holds candidate samples, members first.
	Targets    *datasets.Dataset
	NumMembers int
	// VictimID is the client whose download is altered and whose update
	// is observed.
	VictimID int
	// StartRound is the first attacked round (the paper starts "from the
	// last fifth rounds").
	StartRound int
	// AscentLR is the alteration step size.
	AscentLR float64
	// AscentSteps is how many alteration gradient steps run per round.
	AscentSteps int
	// Descend flips the alteration to gradient descent (Optimization-2).
	Descend bool

	lossRecords [][]float64 // per observed round: per-target loss
}

// Alter implements fl.AlterFunc: gradient-ascend (or descend) the target
// samples in the parameters the victim receives.
func (a *ActiveAttacker) Alter(round, clientID int, global []float64) []float64 {
	if clientID != a.VictimID || round < a.StartRound {
		return nil
	}
	net := a.BuildNet()
	if err := nn.SetFlatParams(net.Params(), global); err != nil {
		return nil
	}
	steps := a.AscentSteps
	if steps <= 0 {
		steps = 1
	}
	lr := a.AscentLR
	if lr <= 0 {
		lr = 0.05
	}
	x, y := a.Targets.Batch(0, a.Targets.Len())
	for s := 0; s < steps; s++ {
		nn.ZeroGrads(net.Params())
		logits, cache := net.Forward(x, true)
		res := nn.SoftmaxCrossEntropy(logits, y)
		grad := res.Grad
		if !a.Descend {
			grad = tensor.Scale(grad, -1) // ascend: maximize target loss
		}
		net.Backward(cache, grad)
		(&nn.SGD{LR: lr}).Step(net.Params())
	}
	return nn.FlattenParams(net.Params())
}

// ObserveRound implements fl.RoundObserver: record the victim's
// post-training loss on every target sample. A round whose aggregate holds
// no update from the victim (dropped or not sampled) records nothing.
func (a *ActiveAttacker) ObserveRound(round int, _ []float64, updates []fl.Update) {
	if round < a.StartRound {
		return
	}
	for _, u := range updates {
		if u.ClientID != a.VictimID {
			continue
		}
		net := a.BuildNet()
		if err := nn.SetFlatParams(net.Params(), u.Params); err != nil {
			return
		}
		a.lossRecords = append(a.lossRecords, fl.Losses(net, a.Targets, 64))
		return
	}
}

// Result scores the attack. In ascent mode members are the samples whose
// loss the victim kept LOW despite the server pushing it up; in descent
// mode (Optimization-2 against CIP) members are the samples whose loss
// ends HIGH, because CIP's Step II raises loss on original member data.
func (a *ActiveAttacker) Result() (Result, error) {
	if len(a.lossRecords) == 0 {
		return Result{}, fmt.Errorf("attacks: active attack observed no rounds")
	}
	n := a.Targets.Len()
	mean := make([]float64, n)
	for _, rec := range a.lossRecords {
		for i, l := range rec {
			mean[i] += l / float64(len(a.lossRecords))
		}
	}
	scores := make([]float64, n)
	for i, m := range mean {
		if a.Descend {
			scores[i] = m // high loss ⇒ member
		} else {
			scores[i] = -m // low loss ⇒ member
		}
	}
	return ThresholdResult(scores[:a.NumMembers], scores[a.NumMembers:]), nil
}
