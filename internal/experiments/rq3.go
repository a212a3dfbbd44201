package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/model"
)

// rq3Presets returns the datasets swept in RQ3/RQ4 at the given scale.
func rq3Presets(s datasets.Scale) []datasets.Preset {
	if s == datasets.Full {
		return datasets.AllPresets()
	}
	return []datasets.Preset{datasets.CIFAR100, datasets.CHMNIST}
}

// archFor picks the backbone for a dataset: the paper uses ResNet-50 for
// the image datasets and an MLP for Purchase-50. At quick scale the
// cheaper VGG family stands in for the image backbone so the whole suite
// stays CI-sized; full scale uses the ResNet family as the paper does.
func archFor(p datasets.Preset, s datasets.Scale) model.Arch {
	if p == datasets.Purchase50 {
		return model.MLP
	}
	if s == datasets.Full {
		return model.ResNet
	}
	return model.VGG
}

// attackNames lists the five external attacks in the paper's order.
var attackNames = []string{"Ob-Label", "Ob-MALT", "Ob-NN", "Ob-BlindMI", "Pb-Bayes"}

// rq3Cell is one (dataset, α) evaluation: the trained CIP model attacked
// by all five external attacks.
type rq3Cell struct {
	results map[string]attacks.Result
	testAcc float64
}

func runRQ3Cell(cfg Config, p datasets.Preset, alpha float64) (*rq3Cell, error) {
	d, err := datasets.Load(p, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	split := splitForAttack(d)
	rounds := 22
	shadowEpochs := 22
	if cfg.Scale == datasets.Full {
		rounds, shadowEpochs = 50, 50
	}
	arch := archFor(p, cfg.Scale)

	crun, err := runFed(split.TargetTrain, arch, 1, rounds, cfg.Seed, cipClients{alpha},
		fedOpts{augment: d.Augment})
	if err != nil {
		return nil, err
	}
	probe := crun.attackerNet() // external attacker: zero-t queries
	members, nonMembers := equalize(crun.Members[0], split.NonMembers)

	shadow, err := trainShadowFor(arch, split, shadowEpochs, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	cell := &rq3Cell{results: map[string]attacks.Result{}, testAcc: crun.utility(d.Test)}
	cell.results["Ob-Label"] = attacks.ObLabel(probe, members, nonMembers)
	cell.results["Ob-MALT"] = attacks.ObMALT(probe, members, nonMembers)
	cell.results["Ob-NN"] = attacks.ObNN(probe, members, nonMembers, shadow, rng)
	cell.results["Ob-BlindMI"] = attacks.ObBlindMI(probe, members, nonMembers, rng)
	cell.results["Pb-Bayes"] = attacks.PbBayes(probe, members, nonMembers, shadow, rng)
	return cell, nil
}

// Fig8 reproduces Figure 8: the accuracy of the five external attacks
// against CIP as the blending parameter α increases, per dataset.
func Fig8(cfg Config) (*Table, error) {
	alphas := []float64{0.1, 0.5, 0.9}
	if cfg.Scale == datasets.Full {
		alphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	t := &Table{
		ID:     "fig8",
		Title:  "RQ3: external attack accuracy vs alpha, per dataset",
		Header: []string{"dataset", "alpha"},
	}
	// Each (dataset, α) cell loads its own data, trains its own federation
	// and shadow model, and owns its attack RNG (cfg.Seed+7) — fully
	// independent, so the grid fans out over runIndexed (parallel.go).
	type gridCell struct {
		p datasets.Preset
		a float64
	}
	var cells []gridCell
	for _, p := range rq3Presets(cfg.Scale) {
		for _, a := range alphas {
			cells = append(cells, gridCell{p, a})
		}
	}
	for _, name := range attackNames {
		t.Header = append(t.Header, attackCols(name)...)
	}
	results, err := runIndexed(len(cells), func(i int) (*rq3Cell, error) {
		return runRQ3Cell(cfg, cells[i].p, cells[i].a)
	})
	if err != nil {
		return nil, err
	}
	for i, cell := range results {
		row := []Cell{label(cells[i].p.String()), label(fmt.Sprintf("%.1f", cells[i].a))}
		for _, name := range attackNames {
			row = append(row, attackCells(cell.results[name])...)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table4 reproduces Table IV: precision, recall, F1 and accuracy of each
// attack against CIP at α = 0.7.
func Table4(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "RQ3: attack precision/recall/F1/accuracy against CIP (alpha=0.7)",
		Header: append([]string{"dataset", "attack", "precision", "recall", "f1"}, attackCols("accuracy")...),
	}
	for _, p := range rq3Presets(cfg.Scale) {
		cell, err := runRQ3Cell(cfg, p, 0.7)
		if err != nil {
			return nil, err
		}
		for _, name := range attackNames {
			r := cell.results[name]
			t.AddRow(append([]Cell{label(p.String()), label(name),
				f3(r.Counts.Precision()), f3(r.Counts.Recall()),
				f3(r.Counts.F1())}, attackCells(r)...)...)
		}
	}
	return t, nil
}

// Table5 reproduces Table V: CIP's test accuracy across α per dataset,
// with α = 0 standing for the undefended legacy model.
func Table5(cfg Config) (*Table, error) {
	alphas := []float64{0.1, 0.5, 0.9}
	if cfg.Scale == datasets.Full {
		alphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	header := []string{"dataset", "0 (no defense)"}
	for _, a := range alphas {
		header = append(header, fmt.Sprintf("%.1f", a))
	}
	t := &Table{
		ID:     "table5",
		Title:  "RQ3: CIP test accuracy vs alpha",
		Header: header,
	}
	rounds := 22
	if cfg.Scale == datasets.Full {
		rounds = 50
	}
	for _, p := range rq3Presets(cfg.Scale) {
		d, err := datasets.Load(p, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		arch := archFor(p, cfg.Scale)
		lrun, err := runFed(d.Train, arch, 1, rounds, cfg.Seed, plain{}, fedOpts{augment: d.Augment})
		if err != nil {
			return nil, err
		}
		row := []Cell{label(p.String()), f3(lrun.utility(d.Test))}
		for _, a := range alphas {
			crun, err := runFed(d.Train, arch, 1, rounds, cfg.Seed, cipClients{a},
				fedOpts{augment: d.Augment})
			if err != nil {
				return nil, err
			}
			row = append(row, f3(crun.utility(d.Test)))
		}
		t.AddRow(row...)
	}
	return t, nil
}
