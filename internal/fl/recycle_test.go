package fl_test

// Update ownership on the in-process engine. A client implementing
// fl.UpdateRecycler builds each update in the vector the server handed back
// after the previous round, and observers and AlterFunc read the server's
// live global instead of a copy. These tests hold both halves: the
// allocation bound that is the point, and — with every recycled vector
// NaN-filled the moment it is handed back — bit-identical globals and
// observer records on every round path.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// meteredClient is a core.Client whose TrainLocal also counts the bytes it
// allocates. It embeds the concrete client, so RecycleUpdate is promoted
// and the server recycles into it as into the bare client.
type meteredClient struct {
	*core.Client
	allocated *uint64
}

func (c meteredClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u, err := c.Client.TrainLocal(round, global)
	runtime.ReadMemStats(&after)
	*c.allocated += after.TotalAlloc - before.TotalAlloc
	return u, err
}

// paramsAddr records where each update's Params live, per round.
type paramsAddr struct{ rounds [][]*float64 }

func (o *paramsAddr) ObserveRound(_ int, _ []float64, updates []fl.Update) {
	addrs := make([]*float64, len(updates))
	for i, u := range updates {
		addrs[i] = &u.Params[0]
	}
	o.rounds = append(o.rounds, addrs)
}

// TestInProcessRoundSteadyStateAllocation: two CIP clients on the
// benchmark's VGG shape (3x32x32 inputs, 100 classes, 719,364 parameters).
// After three warm rounds the server's side of a round — everything but the
// clients' TrainLocal — allocates next to nothing per update, and every
// client fills the same vector round after round.
func TestInProcessRoundSteadyStateAllocation(t *testing.T) {
	const (
		nClient = 2
		warm    = 3
		rounds  = warm + 3
	)
	train, _, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 100, Train: 8 * nClient, Test: 1, C: 3, H: 32, W: 32,
		Signal: 0.4, Noise: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionIID(train, nClient, rand.New(rand.NewSource(2)))
	var trainAlloc uint64
	clients := make([]fl.Client, nClient)
	var initial []float64
	for i := range clients {
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(3)), model.VGG, train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		c := core.NewClient(i, dual, shards[i], core.TrainConfig{Alpha: 0.9, LambdaM: 0.3, BatchSize: 32},
			core.BlendSeed(1, i), rand.New(rand.NewSource(int64(20+i))))
		clients[i] = meteredClient{Client: c, allocated: &trainAlloc}
	}
	addrs := &paramsAddr{rounds: make([][]*float64, 0, rounds)}
	srv := fl.NewServer(initial, clients...)
	srv.Workers = 1 // serial training, so the per-client meter sees only its own client
	srv.Observers = []fl.RoundObserver{addrs, &fl.HistoryRecorder{}}
	if err := srv.Run(warm); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trainAlloc = 0
	if err := srv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	updates := uint64((rounds - warm) * nClient)
	if b := (after.TotalAlloc - before.TotalAlloc - trainAlloc) / updates; b > 64<<10 {
		t.Errorf("the server's round path allocates %d B per update, want ≤ 64 KiB (the update itself is %d B)",
			b, 8*len(initial))
	}
	for r := warm; r < rounds; r++ {
		for i, a := range addrs.rounds[r] {
			if a != addrs.rounds[warm-1][i] {
				t.Fatalf("round %d: client %d's update was not built in its recycled vector", r, i)
			}
		}
	}
}

// recycleFederation is four clients on small synthetic images: CIP clients,
// or plain FedAvg LegacyClients when legacy is set. build returns a fresh
// network of the clients' architecture at the initial parameters (for CIP,
// the dual model queried without t).
func recycleFederation(t *testing.T, legacy bool) (srv *fl.Server, build func() nn.Layer, targets *datasets.Dataset) {
	t.Helper()
	const n = 4
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Train: 48 * n, Test: 16, C: 2, H: 6, W: 6,
		Signal: 0.5, Noise: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionIID(train, n, rand.New(rand.NewSource(8)))
	build = func() nn.Layer {
		rng := rand.New(rand.NewSource(10))
		if legacy {
			return model.NewClassifier(rng, model.VGG, train.In, train.NumClasses)
		}
		m := core.NewCIPModel(core.NewDualChannelModel(rng, model.VGG, train.In, train.NumClasses),
			core.NewPerturbation(0, []int{2, 6, 6}, 0, 1).T, 0.9)
		return m.WithT(m.ZeroT())
	}
	clients := make([]fl.Client, n)
	for i := range clients {
		rng := rand.New(rand.NewSource(int64(20 + i)))
		net := build()
		if legacy {
			clients[i] = fl.NewLegacyClient(i, net, shards[i], fl.ClientConfig{BatchSize: 16, Momentum: 0.9}, nil, rng)
			continue
		}
		clients[i] = core.NewClient(i, net.(*core.CIPModel).Dual, shards[i], core.TrainConfig{
			Alpha: 0.9, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02, BatchSize: 16, Momentum: 0.9,
		}, core.BlendSeed(99, i), rng)
	}
	targets = datasets.Concat(shards[0].Subset([]int{0, 1, 2, 3}), test.Subset([]int{0, 1, 2, 3}))
	return fl.NewServer(nn.FlattenParams(build().Params()), clients...), build, targets
}

// recycleOutcome is everything a run left behind that must not change
// under the poison hook.
type recycleOutcome struct {
	global  []float64
	history []fl.RoundRecord
	scores  []float64 // the active attacker's, when one ran
}

// TestPoisonedRecycleChangesNothing runs every in-process round path twice
// — plainly, then with each vector the server recycles NaN-filled on hand
// back — and requires bit-identical globals, kept observer records and
// attack scores: nothing that reads an update or the global past its
// release point sees storage a client has reused.
func TestPoisonedRecycleChangesNothing(t *testing.T) {
	const rounds = 4
	scenarios := []struct {
		name   string
		legacy bool
		setup  func(srv *fl.Server, build func() nn.Layer, targets *datasets.Dataset) *attacks.ActiveAttacker
	}{
		{name: "fail-stop"},
		{name: "fail-stop-legacy", legacy: true},
		{name: "quorum-drop", setup: func(srv *fl.Server, _ func() nn.Layer, _ *datasets.Dataset) *attacks.ActiveAttacker {
			srv.Clients[2] = faults.NewFlaky(srv.Clients[2], faults.On(1, 2))
			srv.Policy = &fl.RoundPolicy{MinQuorum: 3}
			return nil
		}},
		{name: "median", setup: func(srv *fl.Server, _ func() nn.Layer, _ *datasets.Dataset) *attacks.ActiveAttacker {
			srv.Policy = &fl.RoundPolicy{MinQuorum: 3, Robust: robust.Median{}}
			return nil
		}},
		{name: "reputation", setup: func(srv *fl.Server, _ func() nn.Layer, _ *datasets.Dataset) *attacks.ActiveAttacker {
			srv.Policy = &fl.RoundPolicy{Reputation: robust.NewReputation(robust.ReputationConfig{})}
			return nil
		}},
		{name: "topk8-bank", setup: func(srv *fl.Server, _ func() nn.Layer, _ *datasets.Dataset) *attacks.ActiveAttacker {
			srv.Policy = &fl.RoundPolicy{Compress: compress.NewBank(compress.Config{Mode: compress.TopKQ8, TopKFrac: 0.1})}
			return nil
		}},
		{name: "active-attacker", setup: func(srv *fl.Server, build func() nn.Layer, targets *datasets.Dataset) *attacks.ActiveAttacker {
			a := &attacks.ActiveAttacker{BuildNet: build, Targets: targets, NumMembers: 4, VictimID: 0,
				StartRound: 1, AscentSteps: 2, Descend: true}
			srv.Alter = a.Alter
			srv.Observers = append(srv.Observers, a)
			return a
		}},
		{name: "sample-half", setup: func(srv *fl.Server, _ func() nn.Layer, _ *datasets.Dataset) *attacks.ActiveAttacker {
			srv.SampleFraction = 0.5
			srv.SampleRng = rand.New(rand.NewSource(3))
			return nil
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(poison bool) recycleOutcome {
				if poison {
					defer fl.PoisonRecycled()()
				}
				srv, build, targets := recycleFederation(t, sc.legacy)
				rec := &fl.HistoryRecorder{KeepParams: true}
				srv.Observers = []fl.RoundObserver{rec}
				var attacker *attacks.ActiveAttacker
				if sc.setup != nil {
					attacker = sc.setup(srv, build, targets)
				}
				if err := srv.Run(rounds); err != nil {
					t.Fatal(err)
				}
				out := recycleOutcome{global: srv.Global(), history: rec.Rounds}
				if attacker != nil {
					res, err := attacker.Result()
					if err != nil {
						t.Fatal(err)
					}
					out.scores = res.Scores
				}
				return out
			}
			want, got := run(false), run(true)
			if len(got.history) != rounds {
				t.Fatalf("recorded %d rounds, want %d", len(got.history), rounds)
			}
			vectors := func(o recycleOutcome) [][]float64 {
				vs := [][]float64{o.global, o.scores}
				for _, r := range o.history {
					vs = append(append(vs, r.Global, r.TrainLosses), r.LocalParams...)
				}
				return vs
			}
			wantVs, gotVs := vectors(want), vectors(got)
			if len(gotVs) != len(wantVs) {
				t.Fatalf("poisoned run kept %d vectors, plain run %d", len(gotVs), len(wantVs))
			}
			for i := range wantVs {
				if len(gotVs[i]) != len(wantVs[i]) {
					t.Fatalf("vector %d: length %d under poison, %d plain", i, len(gotVs[i]), len(wantVs[i]))
				}
				for j, v := range wantVs[i] {
					if math.IsNaN(gotVs[i][j]) || math.Float64bits(gotVs[i][j]) != math.Float64bits(v) {
						t.Fatalf("vector %d [%d]: %v under poison, %v plain", i, j, gotVs[i][j], v)
					}
				}
			}
		})
	}
}

// TestKeptGlobalSurvivesLaterRounds: a HistoryRecorder's kept global is its
// own copy — three more rounds, which reuse the engine's global and spare
// vectors in place, leave it as it was recorded.
func TestKeptGlobalSurvivesLaterRounds(t *testing.T) {
	srv, _, _ := recycleFederation(t, false)
	rec := &fl.HistoryRecorder{KeepParams: true}
	srv.Observers = []fl.RoundObserver{rec}
	if err := srv.Run(1); err != nil {
		t.Fatal(err)
	}
	kept := append([]float64(nil), rec.Rounds[0].Global...)
	if err := srv.Run(4); err != nil {
		t.Fatal(err)
	}
	for i, v := range rec.Rounds[0].Global {
		if math.Float64bits(v) != math.Float64bits(kept[i]) {
			t.Fatalf("kept round-0 global changed at %d after three more rounds: %v, was %v", i, v, kept[i])
		}
	}
}
