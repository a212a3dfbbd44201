package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/nn"
)

// Theorem1 empirically validates the paper's §III-C analysis on a trained
// CIP model: for a batch of guessed perturbations t′, it measures how
// often the theorem's premise l(θ, z_t) ≤ l(θ, z_t′) holds on members,
// the mean loss gap, and the resulting advantage ratio
// ε = exp(−(l(z_t′) − l(z_t))/T). The theorem bounds ε by 1 where its
// premise holds, so the mean and max ε columns cover those members only;
// the members where it fails get their own max ε column (0 when there are
// none), which exceeds 1 by construction. A mean ε far below 1 is the
// quantitative form of "guessing a perturbation gains the adversary
// nothing".
func Theorem1(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	split := splitForAttack(d)
	rounds := 25
	guesses := 5
	if cfg.Scale == datasets.Full {
		rounds, guesses = 50, 20
	}
	crun, err := runFed(split.TargetTrain, archFor(datasets.CIFAR100, cfg.Scale), 1, rounds,
		cfg.Seed, cipClients{0.7}, fedOpts{})
	if err != nil {
		return nil, err
	}
	client := crun.cip(0)
	members := crun.Members[0]
	m := crun.cipNet().WithT(client.Perturbation().T)

	x, y := members.Batch(0, members.Len())
	logitsTrue, _ := m.Forward(x, false)
	lossTrue := nn.SoftmaxCrossEntropy(logitsTrue, y).PerSample

	const temperature = 1.0
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	t := &Table{
		ID:    "theorem1",
		Title: "Empirical check of Theorem 1 on a trained CIP model (alpha=0.7, T=1)",
		Header: []string{"guessed t' seed", "premise holds", "mean loss gap",
			"mean eps", "max eps", "max eps (premise fails)"},
	}
	for g := 0; g < guesses; g++ {
		guess := core.NewPerturbation(rng.Int63(), client.Perturbation().T.Shape, 0, 1)
		logitsG, _ := m.WithT(guess.T).Forward(x, false)
		lossGuess := nn.SoftmaxCrossEntropy(logitsG, y).PerSample

		holds := 0
		var gapSum, epsSum, epsMax, failMax float64
		for i := range lossTrue {
			gap := lossGuess[i] - lossTrue[i]
			gapSum += gap
			eps := core.AdvantageRatio(lossTrue[i], lossGuess[i], temperature)
			if gap < 0 {
				failMax = max(failMax, eps)
				continue
			}
			holds++
			epsSum += eps
			epsMax = max(epsMax, eps)
		}
		n := float64(len(lossTrue))
		t.AddRow(label(fmt.Sprintf("#%d", g+1)),
			value("%.0f%%", 100*float64(holds)/n),
			// Where the premise holds the gaps are large and eps tiny, so
			// %.3g keeps the magnitude that %.3f would print as 0.000.
			f3(gapSum/n), value("%.3g", epsSum/float64(holds)), value("%.3g", epsMax), f3(failMax))
	}
	t.Notes = append(t.Notes,
		"Theorem 1: when the premise holds, eps = exp(-(l(t')-l(t))/T) <= 1; mean eps and max eps cover the members where it holds, and mean eps << 1 quantifies how little a guessed perturbation helps",
		"max eps (premise fails) is over the other members (0 when there are none); there eps > 1 by construction")
	return t, nil
}
