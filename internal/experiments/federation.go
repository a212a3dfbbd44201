package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
	"github.com/cip-fl/cip/internal/tensor"
)

// hyper centralizes the training hyperparameters shared by all experiment
// federations at our scale.
type hyper struct {
	batch    int
	lr       float64
	momentum float64
}

func defaultHyper() hyper { return hyper{batch: 16, lr: 0.05, momentum: 0.9} }

// fedOpts configures runFed beyond the client factory.
type fedOpts struct {
	classesPerClient int // 0 = iid partition
	augment          bool
	telemetry        *telemetry.Registry // nil disables metrics
	keepRounds       map[int]bool        // rounds whose local params the recorder keeps
	alter            fl.AlterFunc
	observers        []fl.RoundObserver
	// ckpt, when non-nil, makes the run durable: the factory builds
	// stateful clients (serializable RNGs, tracked data order) and the
	// server snapshots/resumes through it.
	ckpt *CheckpointSpec
	// policy, when non-nil, attaches a RoundPolicy (quorum, robust
	// aggregation, reputation-driven quarantine) to the server.
	policy *fl.RoundPolicy
}

// fedEnv is what a client factory builds from.
type fedEnv struct {
	train  *datasets.Dataset // input shape and class count
	arch   model.Arch
	rounds int
	seed   int64
	opts   fedOpts
}

// clientFactory builds a federation's model and clients: a plain (or
// baseline-defended) classifier, or a CIP client. Each factory owns its
// seeding — the model from seed+1, the client RNGs from per-client
// offsets — so equal seeds give bit-identical federations.
type clientFactory interface {
	// net returns a fresh model at the run's initial parameters, as an
	// outside attacker queries it (CIP: with the zero perturbation).
	net(e fedEnv) nn.Layer
	// clients builds client i over shards[i] — stateful, checkpointable
	// clients for a durable run — and returns the roster with each
	// client's member set (the samples it trains on).
	clients(e fedEnv, shards []*datasets.Dataset) ([]fl.Client, []*datasets.Dataset)
}

// plain builds plain classifiers, optionally with a per-client defense
// TrainStep (the DP, HDP, AR, MM and RL baselines). Client i draws from
// seed+10+i.
type plain struct {
	stepFor func(i int) fl.TrainStep
	// build overrides the default classifier (HDP's frozen-feature model
	// plugs in here). It must be deterministic.
	build func() nn.Layer
}

func (p plain) net(e fedEnv) nn.Layer {
	if p.build != nil {
		return p.build()
	}
	return model.NewClassifier(rand.New(rand.NewSource(e.seed+1)), e.arch, e.train.In, e.train.NumClasses)
}

func (p plain) clients(e fedEnv, shards []*datasets.Dataset) ([]fl.Client, []*datasets.Dataset) {
	h := defaultHyper()
	cfg := fl.ClientConfig{
		BatchSize: h.batch,
		LR:        fl.DecaySchedule(h.lr, e.rounds),
		Momentum:  h.momentum,
		Augment:   e.opts.augment,
	}
	out := make([]fl.Client, len(shards))
	for i, shard := range shards {
		var step fl.TrainStep
		if p.stepFor != nil {
			step = p.stepFor(i)
		}
		seed := e.seed + int64(10+i)
		if e.opts.ckpt != nil {
			out[i] = fl.NewStatefulLegacyClient(i, p.net(e), shard, cfg, step, seed)
		} else {
			out[i] = fl.NewLegacyClient(i, p.net(e), shard, cfg, step, rand.New(rand.NewSource(seed)))
		}
	}
	return out, shards
}

// cipClients builds CIP clients blending with alpha. Client i's secret
// perturbation comes from core.BlendSeed(seed, i) and its RNG from
// seed+20+i.
type cipClients struct{ alpha float64 }

func (c cipClients) dual(e fedEnv) *core.DualChannelModel {
	return core.NewDualChannelModel(rand.New(rand.NewSource(e.seed+1)), e.arch,
		e.train.In, e.train.NumClasses)
}

func (c cipClients) net(e fedEnv) nn.Layer {
	return core.NewCIPModel(c.dual(e), tensor.New(e.train.SampleShape()...), c.alpha)
}

func (c cipClients) clients(e fedEnv, shards []*datasets.Dataset) ([]fl.Client, []*datasets.Dataset) {
	tc := cipTrainConfig(c.alpha, e.rounds, e.opts.augment)
	tc.Metrics = core.NewMetrics(e.opts.telemetry)
	out := make([]fl.Client, len(shards))
	members := make([]*datasets.Dataset, len(shards))
	for i, shard := range shards {
		var cc *core.Client
		seed := e.seed + int64(20+i)
		if e.opts.ckpt != nil {
			cc = core.NewStatefulClient(i, c.dual(e), shard, tc, core.BlendSeed(e.seed, i), seed)
		} else {
			cc = core.NewClient(i, c.dual(e), shard, tc, core.BlendSeed(e.seed, i),
				rand.New(rand.NewSource(seed)))
		}
		out[i], members[i] = cc, cc.Data()
	}
	return out, members
}

// cipTrainConfig is the CIP hyperparameter set the experiments use: the
// paper's α plus λ values rescaled to our loss/iteration scale (DESIGN.md
// §2; λ_m drives the Eq. 4 original-loss maximization).
func cipTrainConfig(alpha float64, rounds int, augment bool) core.TrainConfig {
	h := defaultHyper()
	return core.TrainConfig{
		Alpha:     alpha,
		LambdaT:   1e-6,
		LambdaM:   0.3,
		PerturbLR: 0.02,
		BatchSize: h.batch,
		LR:        fl.DecaySchedule(h.lr, rounds),
		Momentum:  h.momentum,
		Augment:   augment,
	}
}

// fedRun is the result of a federation.
type fedRun struct {
	Global   []float64
	Recorder *fl.HistoryRecorder
	Clients  []fl.Client
	// Members holds each client's member set, in the order its client
	// left it.
	Members []*datasets.Dataset
	// NewNet builds a fresh model of the run's architecture in the
	// attacker's view (see clientFactory.net).
	NewNet func() nn.Layer
}

// runFed trains a FedAvg federation of the factory's clients and returns
// the final global model. The partition draws from seed.
func runFed(train *datasets.Dataset, arch model.Arch, nClients, rounds int,
	seed int64, f clientFactory, opts fedOpts) (*fedRun, error) {
	rng := rand.New(rand.NewSource(seed))
	var shards []*datasets.Dataset
	if opts.classesPerClient > 0 {
		shards = datasets.PartitionByClass(train, nClients, opts.classesPerClient, rng)
	} else {
		shards = datasets.PartitionIID(train, nClients, rng)
	}
	e := fedEnv{train: train, arch: arch, rounds: rounds, seed: seed, opts: opts}
	clients, members := f.clients(e, shards)
	rec := &fl.HistoryRecorder{KeepParams: len(opts.keepRounds) > 0, OnlyRounds: opts.keepRounds}
	srv := fl.NewServer(nn.FlattenParams(f.net(e).Params()), clients...)
	srv.Metrics = fl.NewMetrics(opts.telemetry)
	srv.Observers = append(srv.Observers, rec)
	srv.Observers = append(srv.Observers, opts.observers...)
	srv.Alter = opts.alter
	srv.Policy = opts.policy
	if err := runServer(srv, rounds, opts.ckpt); err != nil {
		return nil, fmt.Errorf("experiments: federation: %w", err)
	}
	return &fedRun{Global: srv.Global(), Recorder: rec, Clients: clients, Members: members,
		NewNet: func() nn.Layer { return f.net(e) }}, nil
}

// attackerNet returns the final global model as an outside attacker
// queries it: a CIP model with the zero perturbation (it does not know t).
func (r *fedRun) attackerNet() nn.Layer {
	net := r.NewNet()
	if err := nn.SetFlatParams(net.Params(), r.Global); err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // run/arch mismatch is a bug
	}
	return net
}

// cipNet is attackerNet typed for a CIP run, for the adaptive attacks
// that steer t.
func (r *fedRun) cipNet() *core.CIPModel { return r.attackerNet().(*core.CIPModel) }

// clientNet returns the final global model as client i queries it: a CIP
// client with its own secret t.
func (r *fedRun) clientNet(i int) nn.Layer {
	net := r.attackerNet()
	if m, ok := net.(*core.CIPModel); ok {
		return m.WithT(r.cip(i).Perturbation().T)
	}
	return net
}

// utility evaluates the final global model on d the way the federation
// serves inference: a CIP model is averaged over clients, each querying
// with its own secret t.
func (r *fedRun) utility(d *datasets.Dataset) float64 {
	net := r.attackerNet()
	m, ok := net.(*core.CIPModel)
	if !ok {
		return fl.Evaluate(net, d, 64)
	}
	var sum float64
	for i := range r.Clients {
		sum += fl.Evaluate(m.WithT(r.cip(i).Perturbation().T), d, 64)
	}
	return sum / float64(len(r.Clients))
}

// cip returns client i of a CIP run.
func (r *fedRun) cip(i int) *core.Client { return r.Clients[i].(*core.Client) }

// attackSplit carves a loaded preset into the standard attack layout:
// the target's training set, a disjoint shadow training set, non-member
// and shadow-test sets.
type attackSplit struct {
	TargetTrain *datasets.Dataset
	ShadowTrain *datasets.Dataset
	NonMembers  *datasets.Dataset
	ShadowTest  *datasets.Dataset
}

func splitForAttack(d *datasets.Data) attackSplit {
	tt, st := d.Train.Split(d.Train.Len() / 2)
	nm, sx := d.Test.Split(d.Test.Len() / 2)
	return attackSplit{TargetTrain: tt, ShadowTrain: st, NonMembers: nm, ShadowTest: sx}
}

// matchClasses restricts d to samples whose class occurs in ref. Under a
// non-iid partition the victim's members span only its own classes;
// without this restriction a membership attack could "win" by telling
// classes apart instead of membership, inflating every attack's accuracy.
func matchClasses(d, ref *datasets.Dataset) *datasets.Dataset {
	owned := map[int]bool{}
	for _, y := range ref.Y {
		owned[y] = true
	}
	var idx []int
	for i, y := range d.Y {
		if owned[y] {
			idx = append(idx, i)
		}
	}
	return d.Subset(idx)
}

// equalize truncates members/nonMembers to equal length.
func equalize(members, nonMembers *datasets.Dataset) (*datasets.Dataset, *datasets.Dataset) {
	n := members.Len()
	if nonMembers.Len() < n {
		n = nonMembers.Len()
	}
	mi := make([]int, n)
	ni := make([]int, n)
	for i := 0; i < n; i++ {
		mi[i], ni[i] = i, i
	}
	return members.Subset(mi), nonMembers.Subset(ni)
}

// trainShadowFor builds the shadow bundle matching an experiment's
// architecture, used by Ob-NN and Pb-Bayes.
func trainShadowFor(arch model.Arch, split attackSplit, epochs int, seed int64) (attacks.ShadowBundle, error) {
	build := func() nn.Layer {
		return model.NewClassifier(rand.New(rand.NewSource(seed)), arch,
			split.ShadowTrain.In, split.ShadowTrain.NumClasses)
	}
	return attacks.TrainShadow(build, split.ShadowTrain, split.ShadowTest,
		epochs, defaultHyper().lr, rand.New(rand.NewSource(seed+1)))
}
