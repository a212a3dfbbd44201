package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// Table11 reproduces Table XI: CIP's overhead — the parameter count of the
// dual-channel model vs the legacy model per architecture (the shared
// backbone keeps the increase to the widened head only), and the number of
// training rounds each takes to fit its training data.
func Table11(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table11",
		Title: "RQ5: parameter and convergence overhead of CIP vs no defense",
		Header: []string{"model", "params (no defense)", "params (CIP)", "param overhead",
			"rounds-to-fit (no defense)", "rounds-to-fit (CIP)"},
	}
	maxRounds := 40
	if cfg.Scale == datasets.Full {
		maxRounds = 80
	}
	const fitAcc = 0.8

	var totalOverhead float64
	for _, arch := range []model.Arch{model.ResNet, model.DenseNet, model.VGG} {
		legacy := model.NewClassifier(rand.New(rand.NewSource(cfg.Seed)), arch,
			d.Train.In, d.Train.NumClasses)
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(cfg.Seed)), arch,
			d.Train.In, d.Train.NumClasses)
		lp, cp := legacy.NumParams(), dual.NumParams()
		overhead := float64(cp-lp) / float64(lp)
		totalOverhead += overhead

		lRounds, err := roundsToFit(d, arch, plain{}, fitAcc, maxRounds, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cRounds, err := roundsToFit(d, arch, cipClients{0.5}, fitAcc, maxRounds, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(label(arch.String()), label(fmt.Sprint(lp)), label(fmt.Sprint(cp)),
			value("%+.2f%%", overhead*100),
			value("%.0f", float64(lRounds)), value("%.0f", float64(cRounds)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average parameter overhead = +%.2f%% (paper: +0.87%%); rounds-to-fit = first round reaching train accuracy %.1f (capped at %d)",
			totalOverhead/3*100, fitAcc, maxRounds))
	return t, nil
}

// roundsToFit trains a single-client federation round by round and
// returns the first round whose training accuracy reaches target. A CIP
// client measures accuracy with its own t, as a deployed client would.
func roundsToFit(d *datasets.Data, arch model.Arch, f clientFactory, target float64,
	maxRounds int, seed int64) (int, error) {
	run, err := runFed(d.Train, arch, 1, 1, seed, f, fedOpts{})
	if err != nil {
		return 0, err
	}
	// Continue training the same client round by round.
	for r := 1; r <= maxRounds; r++ {
		if acc := evalOn(run.clientNet(0), d.Train); acc >= target {
			return r, nil
		}
		u, err := run.Clients[0].TrainLocal(r, run.Global)
		if err != nil {
			return 0, err
		}
		run.Global = u.Params
	}
	return maxRounds, nil
}

func evalOn(net nn.Layer, d *datasets.Dataset) float64 {
	x, y := d.Batch(0, d.Len())
	logits, _ := net.Forward(x, false)
	return nn.Accuracy(logits, y)
}
