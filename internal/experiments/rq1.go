package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/defenses"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/metrics"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// Fig1 reproduces Figure 1: the per-sample loss distributions of members
// vs non-members, before CIP (legacy model) and after (CIP model queried
// without the secret t). The overlap coefficient quantifies how alike the
// two densities are — the paper's visual claim in numbers.
func Fig1(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	split := splitForAttack(d)
	members, nonMembers := equalize(split.TargetTrain, split.NonMembers)
	rounds := 25
	if cfg.Scale == datasets.Full {
		rounds = 50
	}

	arch := archFor(datasets.CIFAR100, cfg.Scale)
	leg, err := runFed(split.TargetTrain, arch, 1, rounds, cfg.Seed, plain{}, fedOpts{})
	if err != nil {
		return nil, err
	}
	legNet := leg.attackerNet()
	memBefore := fl.Losses(legNet, members, 64)
	nonBefore := fl.Losses(legNet, nonMembers, 64)

	cip, err := runFed(split.TargetTrain, arch, 1, rounds, cfg.Seed, cipClients{0.9}, fedOpts{})
	if err != nil {
		return nil, err
	}
	probe := cip.attackerNet() // zero-t query
	cipMembers, cipNon := equalize(cip.Members[0], split.NonMembers)
	memAfter := fl.Losses(probe, cipMembers, 64)
	nonAfter := fl.Losses(probe, cipNon, 64)

	hi := maxOf(append(append([]float64{}, memBefore...), nonBefore...))
	hiA := maxOf(append(append([]float64{}, memAfter...), nonAfter...))
	const bins = 10
	hb := metrics.Histogram(memBefore, 0, hi, bins)
	nb := metrics.Histogram(nonBefore, 0, hi, bins)
	ha := metrics.Histogram(memAfter, 0, hiA, bins)
	na := metrics.Histogram(nonAfter, 0, hiA, bins)

	t := &Table{
		ID:     "fig1",
		Title:  "Loss distributions of members vs non-members, before/after CIP",
		Header: []string{"bin", "member(orig)", "nonmem(orig)", "member(CIP)", "nonmem(CIP)"},
	}
	for i := 0; i < bins; i++ {
		t.AddRow(label(fmt.Sprint(i)), f3(hb[i]), f3(nb[i]), f3(ha[i]), f3(na[i]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("overlap coefficient before CIP = %.3f, after CIP = %.3f (1 = identical distributions)",
			metrics.OverlapCoefficient(hb, nb), metrics.OverlapCoefficient(ha, na)))
	return t, nil
}

func maxOf(xs []float64) float64 {
	m := 1e-9
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Table1 reproduces Table I: the internal-adversary setup grid — legacy
// model train/test accuracy across client counts and architectures, with
// CIP's hyperparameter columns.
func Table1(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	clientCounts := []int{2, 5}
	rounds := map[int]int{2: 16, 5: 24}
	if cfg.Scale == datasets.Full {
		clientCounts = []int{2, 5, 10, 20, 50}
		rounds = map[int]int{2: 40, 5: 60, 10: 80, 20: 100, 50: 120}
	}

	t := &Table{
		ID:    "table1",
		Title: "[Internal setup] legacy model parameters and CIP parameters",
		Header: []string{"model", "#clients", "#train iter", "train acc", "test acc",
			"attack iters", "lr(per.)", "lambda_m", "lambda_t"},
	}
	for _, arch := range []model.Arch{model.ResNet, model.DenseNet, model.VGG} {
		for _, k := range clientCounts {
			r := rounds[k]
			run, err := runFed(d.Train, arch, k, r, cfg.Seed, plain{},
				fedOpts{classesPerClient: noniidClasses(d.Train.NumClasses)})
			if err != nil {
				return nil, err
			}
			trainAcc := run.utility(d.Train)
			testAcc := run.utility(d.Test)
			t.AddRow(label(arch.String()), label(fmt.Sprint(k)), label(fmt.Sprint(r)),
				f3(trainAcc), f3(testAcc),
				label(fmt.Sprintf("%d,%d,%d", r-3, r-2, r-1)), label("1e-2"), label("2e-2"), label("1e-6"))
		}
	}
	t.Notes = append(t.Notes, "non-iid partition ("+fmt.Sprint(noniidClasses(d.Train.NumClasses))+" classes/client), paper's Table I grid at reduced scale")
	return t, nil
}

// noniidClasses maps the paper's "20 of 100 classes per client" ratio onto
// whatever class count the current scale uses.
func noniidClasses(numClasses int) int {
	c := numClasses / 5
	if c < 2 {
		c = 2
	}
	return c
}

// Table2 reproduces Table II: the external-adversary setup — per-dataset
// legacy model accuracies with one client (the paper's worst case) and the
// CIP hyperparameter columns.
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "[External setup] legacy model parameters and CIP parameters",
		Header: []string{"dataset", "model", "#train iter", "train acc", "test acc",
			"lr(train)", "lr(per.)", "lambda_m", "lambda_t"},
	}
	for _, p := range datasets.AllPresets() {
		d, err := datasets.Load(p, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		arch := archFor(p, cfg.Scale)
		rounds := 25
		if cfg.Scale == datasets.Full {
			rounds = 50
		}
		run, err := runFed(d.Train, arch, 1, rounds, cfg.Seed, plain{}, fedOpts{augment: d.Augment})
		if err != nil {
			return nil, err
		}
		t.AddRow(label(d.Name), label(arch.String()), label(fmt.Sprint(rounds)),
			f3(run.utility(d.Train)), f3(run.utility(d.Test)),
			label("8e-2"), label("2e-2"), label("2e-2"), label("1e-6"))
	}
	return t, nil
}

// passiveOn runs the internal passive attack against client 0 of a
// recorded federation.
func passiveOn(kept []fl.RoundRecord, buildNet func() nn.Layer,
	victimShard, nonMembers *datasets.Dataset, seed int64) (attacks.Result, error) {
	m, n := equalize(victimShard, nonMembers)
	return attacks.InternalPassive{BuildNet: buildNet}.Run(kept, m, n,
		rand.New(rand.NewSource(seed)))
}

// lastRounds marks the final n rounds for recorder retention — the
// paper's "attack on several latest iterations".
func lastRounds(total, n int) map[int]bool {
	out := make(map[int]bool, n)
	for i := total - n; i < total; i++ {
		if i >= 0 {
			out[i] = true
		}
	}
	return out
}

// Fig4 reproduces Figure 4: test accuracy and internal attack accuracy
// versus the number of clients, comparing CIP (α=0.5 per the paper's
// Fig. 4), DP, HDP, and no defense under a non-iid partition.
func Fig4(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	clientCounts := []int{2, 5}
	rounds := 20
	if cfg.Scale == datasets.Full {
		clientCounts = []int{2, 5, 10, 20}
		rounds = 50
	}
	ncc := noniidClasses(d.Train.NumClasses)
	arch := archFor(datasets.CIFAR100, cfg.Scale)
	const eps = 128.0 // the paper's headline DP comparison budget

	t := &Table{
		ID:    "fig4",
		Title: "RQ1-internal: accuracy and attack accuracy vs #clients (non-iid)",
		Header: append(append([]string{"defense", "#clients", "test acc"},
			attackCols("passive attack")...), attackCols("active attack")...),
	}

	// Every (clientCount, defense) cell derives all randomness from cfg.Seed
	// and owns its federations, so the grid fans out over runIndexed and the
	// rows are appended serially in the original loop order (parallel.go).
	type cell struct{ k, def int }
	var cells []cell
	for _, k := range clientCounts {
		for def := 0; def < 5; def++ {
			cells = append(cells, cell{k, def})
		}
	}
	rows, err := runIndexed(len(cells), func(i int) ([]Cell, error) {
		return fig4Cell(cfg, d, arch, cells[i].k, rounds, ncc, eps, cells[i].def)
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// fig4Cell computes one (clientCount, defense) cell of Figure 4 and returns
// its formatted table row. def indexes the figure's defense order:
// 0 NoDefense, 1 DP, 2 HDP, 3 CIP(α=0.5), 4 CIP(α=0.9) — α = 0.5 matches
// the paper's Fig. 4 label; α = 0.9 shows the strong-defense setting the
// paper deploys (RQ3).
func fig4Cell(cfg Config, d *datasets.Data, arch model.Arch, k, rounds, ncc int,
	eps float64, def int) ([]Cell, error) {
	keep := lastRounds(rounds, 3)
	steps := rounds * (d.Train.Len() / k / defaultHyper().batch)
	sigma := defenses.NoiseMultiplierFor(eps, 1e-5, steps)
	dpStep := func(i int) fl.TrainStep {
		return defenses.NewDPStep(1.0, sigma, 8, rand.New(rand.NewSource(cfg.Seed+int64(i))))
	}

	var name string
	var f clientFactory
	switch def {
	case 0:
		name, f = "NoDefense", plain{}
	case 1:
		name, f = fmt.Sprintf("DP(eps=%g)", eps), plain{stepFor: dpStep}
	case 2:
		name, f = fmt.Sprintf("HDP(eps=%g)", eps), plain{stepFor: dpStep, build: func() nn.Layer {
			return defenses.NewHDPClassifier(rand.New(rand.NewSource(cfg.Seed+1)),
				cfg.Seed+2, d.Train.In, 128, d.Train.NumClasses)
		}}
	default:
		alpha := 0.5
		if def == 4 {
			alpha = 0.9
		}
		name, f = fmt.Sprintf("CIP(alpha=%.1f)", alpha), cipClients{alpha}
	}
	opts := fedOpts{classesPerClient: ncc, keepRounds: keep}
	run, err := runFed(d.Train, arch, k, rounds, cfg.Seed, f, opts)
	if err != nil {
		return nil, err
	}
	pass, err := passiveOn(run.Recorder.KeptRounds(), run.NewNet,
		run.Members[0], matchClasses(d.Test, run.Members[0]), cfg.Seed)
	if err != nil {
		return nil, err
	}
	// CIP cells draw their active-attack targets from a one-round pre-run
	// (nil ref), plain cells from this run; changing either moves fig4's
	// active-attack cells.
	ref := run
	if def >= 3 {
		ref = nil
	}
	act, err := activeAttack(d, arch, k, rounds, cfg.Seed, f, opts, ref, false)
	if err != nil {
		return nil, err
	}
	row := []Cell{label(name), label(fmt.Sprint(k)), f3(run.utility(d.Test))}
	return append(append(row, attackCells(pass)...), attackCells(act)...), nil
}

// activeAttack reruns a federation with the Nasr active (gradient-ascent)
// malicious server wired in and returns the attack's result. The server
// queries with the zero perturbation (it does not know a CIP client's t).
// The targets are the victim's (client 0's) first members in the order its
// client left them in ref, a finished run of the same federation; a nil
// ref pre-runs the federation for one round to learn that order. With
// descend=true it becomes the adaptive Optimization-2 attack (Table VII):
// the server lowers the targets' loss and flags samples whose loss ends
// high — the signature CIP's Step II leaves on members.
func activeAttack(d *datasets.Data, arch model.Arch, k, rounds int, seed int64,
	f clientFactory, base fedOpts, ref *fedRun, descend bool) (attacks.Result, error) {
	if ref == nil {
		pre, err := runFed(d.Train, arch, k, 1, seed, f, fedOpts{classesPerClient: base.classesPerClient})
		if err != nil {
			return attacks.Result{}, err
		}
		ref = pre
	}
	victimData := ref.Members[0]
	nTargets := victimData.Len() / 2
	if nTargets > 30 {
		nTargets = 30
	}
	nonMembers := matchClasses(d.Test, victimData)
	if nonMembers.Len() < nTargets {
		nTargets = nonMembers.Len()
	}
	targets := datasets.Concat(
		victimData.Subset(seqInts(nTargets)),
		nonMembers.Subset(seqInts(nTargets)))
	attacker := &attacks.ActiveAttacker{
		BuildNet:    ref.NewNet,
		Targets:     targets,
		NumMembers:  nTargets,
		VictimID:    0,
		StartRound:  rounds - 5,
		AscentLR:    0.05,
		AscentSteps: 2,
		Descend:     descend,
	}
	opts := base
	opts.alter = attacker.Alter
	opts.observers = append(opts.observers, attacker)
	opts.keepRounds = nil
	if _, err := runFed(d.Train, arch, k, rounds, seed, f, opts); err != nil {
		return attacks.Result{}, err
	}
	return attacker.Result()
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Fig5 reproduces Figure 5: test and passive-attack accuracy for CIP vs DP
// across the three backbone families and across DP's ε budget (2 clients).
func Fig5(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CIFAR100, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rounds := 16
	epsList := []float64{1, 16, 256}
	if cfg.Scale == datasets.Full {
		rounds = 40
		epsList = []float64{1, 4, 16, 64, 256}
	}
	const k = 2
	ncc := noniidClasses(d.Train.NumClasses)
	keep := lastRounds(rounds, 3)

	t := &Table{
		ID:     "fig5",
		Title:  "RQ1-internal: CIP vs DP across architectures and epsilon (2 clients)",
		Header: append([]string{"model", "defense", "test acc"}, attackCols("passive attack")...),
	}
	// Arch × defense cells are independent (all randomness comes from
	// cfg.Seed); fan out and append rows in the original order.
	type cell struct {
		arch model.Arch
		eps  float64 // DP budget; unused for the CIP cell
		cip  bool
	}
	var cells []cell
	for _, arch := range []model.Arch{model.VGG, model.DenseNet, model.ResNet} {
		cells = append(cells, cell{arch: arch, cip: true})
		for _, eps := range epsList {
			cells = append(cells, cell{arch: arch, eps: eps})
		}
	}
	rows, err := runIndexed(len(cells), func(ci int) ([]Cell, error) {
		c := cells[ci]
		name, f := "CIP(alpha=0.5)", clientFactory(cipClients{0.5})
		if !c.cip {
			steps := rounds * (d.Train.Len() / k / defaultHyper().batch)
			sigma := defenses.NoiseMultiplierFor(c.eps, 1e-5, steps)
			name, f = fmt.Sprintf("DP(eps=%g)", c.eps), plain{stepFor: func(i int) fl.TrainStep {
				return defenses.NewDPStep(1.0, sigma, 8, rand.New(rand.NewSource(cfg.Seed+int64(i))))
			}}
		}
		run, err := runFed(d.Train, c.arch, k, rounds, cfg.Seed, f,
			fedOpts{classesPerClient: ncc, keepRounds: keep})
		if err != nil {
			return nil, err
		}
		pass, err := passiveOn(run.Recorder.KeptRounds(), run.NewNet,
			run.Members[0], matchClasses(d.Test, run.Members[0]), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return append([]Cell{label(c.arch.String()), label(name), f3(run.utility(d.Test))},
			attackCells(pass)...), nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// Fig6 reproduces Figure 6: the external-adversary comparison on CH-MNIST
// (1 client) — test accuracy and Pb-Bayes attack accuracy for no defense,
// CIP(α=0.9), and the DP/HDP/AR/MM/RL baselines across privacy budgets.
func Fig6(cfg Config) (*Table, error) {
	d, err := datasets.Load(datasets.CHMNIST, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	split := splitForAttack(d)
	members, nonMembers := equalize(split.TargetTrain, split.NonMembers)
	rounds := 25
	shadowEpochs := 25
	epsList := []float64{1, 8, 32}
	lamList := []float64{0.3, 1, 2}
	muList := []float64{0.5, 2.5, 10}
	omList := []float64{0.5, 2.5, 10}
	if cfg.Scale == datasets.Full {
		rounds, shadowEpochs = 50, 50
		epsList = []float64{1, 2, 8, 16, 32}
		lamList = []float64{0.3, 0.7, 1, 1.5, 2}
		muList = []float64{0.5, 1, 2.5, 5, 10}
		omList = []float64{0.5, 1, 2.5, 5, 10}
	}
	arch := archFor(datasets.CHMNIST, cfg.Scale)
	shadow, err := trainShadowFor(arch, split, shadowEpochs, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig6",
		Title:  "RQ1-external: CIP vs defenses on CH-MNIST (1 client, Pb-Bayes attack)",
		Header: append([]string{"defense", "budget", "test acc"}, attackCols("attack acc")...),
	}

	// Two phases (parallel.go): training cells are independent and fan out;
	// the Pb-Bayes attacks share one sequential RNG (cfg.Seed+5) and the
	// shadow bundle, so they run serially afterwards in the original row
	// order — the rows are bit-identical to the fully serial schedule
	// because training never touches the attack RNG.
	type fig6Run struct {
		name, budget string
		testAcc      float64
		net          nn.Layer
		m, nm        *datasets.Dataset
	}
	cell := func(name, budget string, f plain) func() (fig6Run, error) {
		return func() (fig6Run, error) {
			run, err := runFed(split.TargetTrain, arch, 1, rounds, cfg.Seed, f, fedOpts{})
			if err != nil {
				return fig6Run{}, err
			}
			return fig6Run{name, budget, run.utility(d.Test), run.attackerNet(), members, nonMembers}, nil
		}
	}

	specs := []func() (fig6Run, error){
		cell("NoDefense", "-", plain{}),
		func() (fig6Run, error) {
			crun, err := runFed(split.TargetTrain, arch, 1, rounds, cfg.Seed, cipClients{0.9}, fedOpts{})
			if err != nil {
				return fig6Run{}, err
			}
			cm, cn := equalize(crun.Members[0], split.NonMembers)
			return fig6Run{"CIP(alpha=0.9)", "-", crun.utility(d.Test), crun.attackerNet(), cm, cn}, nil
		},
	}
	steps := rounds * (split.TargetTrain.Len() / defaultHyper().batch)
	for _, eps := range epsList {
		sigma := defenses.NoiseMultiplierFor(eps, 1e-5, steps)
		dpStep := func(i int) fl.TrainStep {
			return defenses.NewDPStep(1.0, sigma, 8, rand.New(rand.NewSource(cfg.Seed+int64(i))))
		}
		specs = append(specs,
			cell("DP", fmt.Sprintf("eps=%g", eps), plain{stepFor: dpStep}),
			cell("HDP", fmt.Sprintf("eps=%g", eps), plain{
				build: func() nn.Layer {
					return defenses.NewHDPClassifier(rand.New(rand.NewSource(cfg.Seed+1)),
						cfg.Seed+2, d.Train.In, 128, d.Train.NumClasses)
				},
				stepFor: dpStep,
			}))
	}
	for _, lam := range lamList {
		specs = append(specs, cell("AR", fmt.Sprintf("lambda=%g", lam), plain{
			stepFor: func(i int) fl.TrainStep {
				return defenses.NewAdvRegStep(lam, split.ShadowTest.Clone(), d.Train.NumClasses,
					rand.New(rand.NewSource(cfg.Seed+int64(i))))
			}}))
	}
	for _, mu := range muList {
		specs = append(specs, cell("MM", fmt.Sprintf("mu=%g", mu), plain{
			stepFor: func(i int) fl.TrainStep {
				return defenses.NewMixupMMDStep(mu, 0.4, split.ShadowTest.Clone(), d.Train.NumClasses,
					rand.New(rand.NewSource(cfg.Seed+int64(i))))
			}}))
	}
	for _, om := range omList {
		specs = append(specs, cell("RL", fmt.Sprintf("omega=%g", om), plain{
			stepFor: func(i int) fl.TrainStep {
				return defenses.NewRelaxLossStep(om)
			}}))
	}

	runs, err := runIndexed(len(specs), func(i int) (fig6Run, error) { return specs[i]() })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	for _, r := range runs {
		res := attacks.PbBayes(r.net, r.m, r.nm, shadow, rng)
		t.AddRow(append([]Cell{label(r.name), label(r.budget), f3(r.testAcc)}, attackCells(res)...)...)
	}
	return t, nil
}
