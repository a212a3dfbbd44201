package attacks

import (
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

type nnLayer = nn.Layer

// freshCIPShadowNet matches the CIP fixture's data geometry with a plain
// classifier — what an external attacker without the dual-channel secret
// would train as its shadow.
func freshCIPShadowNet() nn.Layer {
	return model.NewClassifier(rand.New(rand.NewSource(22)), model.VGG,
		model.Input{C: 3, H: 8, W: 8}, 10)
}

func TestObCalibratedOnOverfitModel(t *testing.T) {
	f := getFixture(t)
	res := ObCalibrated(f.target, f.members, f.nonMembers, f.shadow)
	if acc := res.Accuracy(); acc < 0.6 {
		t.Fatalf("calibrated-difficulty attack accuracy = %v, want ≥0.6", acc)
	}
}

func TestObCalibratedNearChanceOnUntrained(t *testing.T) {
	f := getFixture(t)
	blank := freshNet(f)
	res := ObCalibrated(blank, f.members, f.nonMembers, f.shadow)
	if acc := res.Accuracy(); acc > 0.68 {
		t.Fatalf("calibrated attack on untrained model = %v, want ≈0.5", acc)
	}
}

func TestObCalibratedAgainstCIP(t *testing.T) {
	f := getCIPFixture(t)
	shadowTrain, shadowTest := f.shadow.Clone().Split(f.shadow.Len() / 2)
	sh, err := TrainShadow(func() nnLayer { return freshCIPShadowNet() },
		shadowTrain, shadowTest, 40, 0.04, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	probe := f.evalModel.WithT(f.evalModel.ZeroT())
	res := ObCalibrated(probe, f.members, f.nonMembers, sh)
	trueT := ObMALT(f.evalModel, f.members, f.nonMembers)
	if res.Accuracy() >= trueT.Accuracy() {
		t.Fatalf("calibrated attack without t (%v) should stay below the true-t attack (%v)",
			res.Accuracy(), trueT.Accuracy())
	}
}

func TestResultTPRAtFPR(t *testing.T) {
	f := getFixture(t)
	res := ObMALT(f.target, f.members, f.nonMembers)
	low := res.TPRAtFPR(0.01)
	high := res.TPRAtFPR(0.5)
	if low > high {
		t.Fatalf("TPR must grow with the FPR budget: %v vs %v", low, high)
	}
	// On a fully overfit model some members are identifiable even at 1% FPR.
	if high < 0.5 {
		t.Fatalf("TPR@50%%FPR = %v, want ≥0.5 on overfit model", high)
	}
}

func TestTPRAtFPRNearZeroOnUntrained(t *testing.T) {
	f := getFixture(t)
	blank := freshNet(f)
	res := ObMALT(blank, f.members, f.nonMembers)
	if got := res.TPRAtFPR(0.05); got > 0.35 {
		t.Fatalf("TPR@5%%FPR on untrained model = %v, want small", got)
	}
}
