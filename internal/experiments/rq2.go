package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/metrics"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// Table3 reproduces Table III: accuracy of CIP, no-defense FL, and local
// (non-collaborative) training as the data distribution moves from
// non-iid to iid (classes per client sweeps up to the full class count).
func Table3(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const k = 5
	rounds := 20
	if cfg.Scale == datasets.Full {
		rounds = 50
	}
	total := d.Train.NumClasses
	sweep := []int{total / 5, 2 * total / 5, 3 * total / 5, 4 * total / 5, total}

	cipRow := []Cell{label("CIP (ours)")}
	nodefRow := []Cell{label("No Defense")}
	localRow := []Cell{label("Local Training")}
	header := []string{"defense \\ classes/client"}

	for _, ncc := range sweep {
		header = append(header, fmt.Sprintf("%d", ncc))

		crun, err := runFed(d.Train, model.VGG, k, rounds, cfg.Seed, cipClients{0.3},
			fedOpts{classesPerClient: ncc})
		if err != nil {
			return nil, err
		}
		cipRow = append(cipRow, f3(crun.utility(d.Test)))

		lrun, err := runFed(d.Train, model.VGG, k, rounds, cfg.Seed, plain{},
			fedOpts{classesPerClient: ncc})
		if err != nil {
			return nil, err
		}
		nodefRow = append(nodefRow, f3(lrun.utility(d.Test)))

		acc, err := localTrainingAcc(d, k, ncc, rounds, cfg.Seed)
		if err != nil {
			return nil, err
		}
		localRow = append(localRow, f3(acc))
	}

	t := &Table{
		ID:     "table3",
		Title:  "RQ2: accuracy across data distributions (non-iid -> iid), 5 clients",
		Header: header,
	}
	t.AddRow(cipRow...)
	t.AddRow(nodefRow...)
	t.AddRow(localRow...)
	t.Notes = append(t.Notes,
		"local training evaluates each client's model only on test samples of classes the client holds (paper's footnote)")
	return t, nil
}

// localTrainingAcc trains each client alone (no aggregation) and averages
// accuracy over clients, each evaluated on the test samples of the classes
// it owns — the paper's local-training baseline.
func localTrainingAcc(d *datasets.Data, k, ncc, epochs int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	shards := datasets.PartitionByClass(d.Train, k, ncc, rng)
	var sum float64
	for i, shard := range shards {
		net := model.NewClassifier(rand.New(rand.NewSource(seed+1)), model.VGG,
			d.Train.In, d.Train.NumClasses)
		opt := &nn.SGD{LR: defaultHyper().lr, Momentum: defaultHyper().momentum}
		crng := rand.New(rand.NewSource(seed + int64(30+i)))
		for e := 0; e < epochs; e++ {
			if _, err := fl.TrainEpochs(net, opt, nil, shard,
				fl.ClientConfig{BatchSize: defaultHyper().batch}, crng); err != nil {
				return 0, err
			}
		}
		// Restrict evaluation to the classes this client actually has.
		owned := map[int]bool{}
		for _, y := range shard.Y {
			owned[y] = true
		}
		var idx []int
		for j, y := range d.Test.Y {
			if owned[y] {
				idx = append(idx, j)
			}
		}
		sum += fl.Evaluate(net, d.Test.Subset(idx), 64)
	}
	return sum / float64(k), nil
}

// Fig7 reproduces Figure 7: the earth-mover distance between clients'
// training-loss trajectories under non-iid vs iid partitions, with and
// without CIP. CIP's personalized perturbations shift heterogeneous client
// distributions toward each other, shrinking the EMD.
func Fig7(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	k := 4
	rounds := 20
	if cfg.Scale == datasets.Full {
		k = 10
		rounds = 50
	}
	total := d.Train.NumClasses

	t := &Table{
		ID:     "fig7",
		Title:  "EMD of per-client training loss vs data heterogeneity (alpha=0.3)",
		Header: []string{"distribution", "EMD (no defense)", "EMD (CIP)"},
	}
	for _, ncc := range []int{noniidClasses(total), total} {
		dist := fmt.Sprintf("%d classes/client", ncc)
		if ncc == total {
			dist += " (iid)"
		} else {
			dist += " (non-iid)"
		}

		lrun, err := runFed(d.Train, model.VGG, k, rounds, cfg.Seed, plain{},
			fedOpts{classesPerClient: ncc})
		if err != nil {
			return nil, err
		}
		crun, err := runFed(d.Train, model.VGG, k, rounds, cfg.Seed, cipClients{0.3},
			fedOpts{classesPerClient: ncc})
		if err != nil {
			return nil, err
		}
		t.AddRow(label(dist), f3(meanLossEMD(lrun.Recorder, k)), f3(meanLossEMD(crun.Recorder, k)))
	}
	return t, nil
}

func meanLossEMD(rec *fl.HistoryRecorder, k int) float64 {
	series := make([][]float64, k)
	for i := 0; i < k; i++ {
		series[i] = rec.ClientLossSeries(i)
	}
	return metrics.MeanPairwiseEMD(series)
}
