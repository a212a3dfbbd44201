package fl_test

// In-process Byzantine chaos suite: n clients with f of them running
// sign-flip / scaled-gradient attacks, federated under the robust
// aggregators. Proves the ISSUE's acceptance bar — attacked accuracy within
// 2 points of the attack-free baseline under median and trimmed mean, with
// f < n/3 — plus the reputation tracker quarantining the attackers and a
// checkpoint/restore cycle keeping them quarantined.

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

const (
	byzN      = 12
	byzF      = 3 // f < n/3
	byzRounds = 40
)

func byzAttacker(id int) bool { return id >= byzN-byzF }

func byzData(t *testing.T) (*datasets.Dataset, *datasets.Dataset) {
	t.Helper()
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 4, Train: 240, Test: 200, C: 1, H: 6, W: 6,
		Signal: 0.6, Noise: 0.2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// byzServer builds a 12-client federation; attack wraps each client (nil
// inner return keeps it honest), stateful selects checkpointable clients.
func byzServer(t *testing.T, train *datasets.Dataset,
	attack func(id int, inner fl.Client) fl.Client, policy *fl.RoundPolicy,
	stateful bool) *fl.Server {
	t.Helper()
	shards := datasets.PartitionIID(train, byzN, rand.New(rand.NewSource(99)))
	clients := make([]fl.Client, byzN)
	var initial []float64
	for i := 0; i < byzN; i++ {
		net := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG,
			train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(net.Params())
		}
		cfg := fl.ClientConfig{
			BatchSize: 16, LocalEpochs: 1,
			LR: func(int) float64 { return 0.08 }, Momentum: 0.9,
		}
		var c fl.Client
		if stateful {
			c = fl.NewStatefulLegacyClient(i, net, shards[i], cfg, nil, int64(100+i))
		} else {
			c = fl.NewLegacyClient(i, net, shards[i], cfg, nil,
				rand.New(rand.NewSource(int64(100+i))))
		}
		if attack != nil {
			c = attack(i, c)
		}
		clients[i] = c
	}
	srv := fl.NewServer(initial, clients...)
	srv.Policy = policy
	return srv
}

func byzAccuracy(t *testing.T, train, test *datasets.Dataset, global []float64) float64 {
	t.Helper()
	eval := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG,
		train.In, train.NumClasses)
	if err := nn.SetFlatParams(eval.Params(), global); err != nil {
		t.Fatal(err)
	}
	return fl.Evaluate(eval, test, 32)
}

func signFlipAttack(id int, inner fl.Client) fl.Client {
	if !byzAttacker(id) {
		return inner
	}
	return faults.NewSignFlip(inner, 3, nil)
}

func scaledAttack(id int, inner fl.Client) fl.Client {
	if !byzAttacker(id) {
		return inner
	}
	return faults.NewScaledUpdate(inner, 25, nil)
}

func TestByzantineConvergenceWithinEpsilon(t *testing.T) {
	train, test := byzData(t)

	base := byzServer(t, train, nil, nil, false)
	if err := base.Run(byzRounds); err != nil {
		t.Fatal(err)
	}
	baseline := byzAccuracy(t, train, test, base.Global())
	if baseline < 0.6 {
		t.Fatalf("attack-free baseline accuracy %.3f too weak to compare against", baseline)
	}

	attacks := map[string]func(int, fl.Client) fl.Client{
		"signflip": signFlipAttack,
		"scaled":   scaledAttack,
	}
	rules := map[string]robust.Aggregator{
		"median":  robust.Median{},
		"trimmed": robust.TrimmedMean{Frac: 0.25},
	}
	for an, attack := range attacks {
		for rn, rule := range rules {
			t.Run(an+"/"+rn, func(t *testing.T) {
				// Full defense stack: robust fold plus reputation-driven
				// quarantine, exactly what a hardened deployment runs.
				// MinQuorum is budgeted for the trim: once the f attackers
				// are quarantined, 9 clients remain and trimmed(0.25) keeps
				// 9 − 2·⌊0.25·9⌋ = 5 contributors — a MinQuorum above that
				// would (correctly) abort with ErrQuorumAfterTrim.
				srv := byzServer(t, train, attack, &fl.RoundPolicy{
					MinQuorum:  4,
					Robust:     rule,
					Reputation: robust.NewReputation(0),
				}, false)
				if err := srv.Run(byzRounds); err != nil {
					t.Fatal(err)
				}
				acc := byzAccuracy(t, train, test, srv.Global())
				if acc < baseline-0.02 {
					t.Fatalf("%s under %s: accuracy %.3f, baseline %.3f — outside the 2%% band",
						rn, an, acc, baseline)
				}
			})
		}
	}
}

// Sanity for the whole exercise: the same attack under the plain FedAvg
// mean wrecks the model, so the robust rules above are doing real work.
func TestByzantinePlainMeanCollapses(t *testing.T) {
	train, test := byzData(t)
	srv := byzServer(t, train, scaledAttack, nil, false)
	if err := srv.Run(byzRounds); err != nil {
		t.Fatal(err)
	}
	if acc := byzAccuracy(t, train, test, srv.Global()); acc > 0.5 {
		t.Fatalf("plain mean under 25x scaled attack still at accuracy %.3f — "+
			"attack harness is not biting", acc)
	}
}

// quarantineWatcher records FailQuarantined exclusions per client.
type quarantineWatcher struct {
	mu       sync.Mutex
	excluded map[int]int
}

func (q *quarantineWatcher) ObserveRound(int, []float64, []fl.Update) {}

func (q *quarantineWatcher) ObserveFailures(_ int, failures []fl.ClientFailure) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, f := range failures {
		if f.Reason == fl.FailQuarantined {
			if q.excluded == nil {
				q.excluded = make(map[int]int)
			}
			q.excluded[f.ClientID]++
		}
	}
}

func TestByzantineQuarantineSurvivesCheckpoint(t *testing.T) {
	train, test := byzData(t)
	policy := func() *fl.RoundPolicy {
		return &fl.RoundPolicy{
			MinQuorum:  byzN / 2,
			Robust:     robust.Median{},
			Reputation: robust.NewReputation(0),
		}
	}

	p1 := policy()
	srv := byzServer(t, train, signFlipAttack, p1, true)
	watch := &quarantineWatcher{}
	srv.Observers = append(srv.Observers, watch)
	if err := srv.Run(10); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < byzN; id++ {
		if byzAttacker(id) && !p1.Reputation.Blocked(id) {
			t.Fatalf("attacker %d not quarantined after 10 rounds (state %v, score %.3f)",
				id, p1.Reputation.StateOf(id), p1.Reputation.ScoreOf(id))
		}
		if !byzAttacker(id) && p1.Reputation.StateOf(id) != robust.Healthy {
			t.Fatalf("honest client %d left healthy state: %v (score %.3f)",
				id, p1.Reputation.StateOf(id), p1.Reputation.ScoreOf(id))
		}
	}
	watch.mu.Lock()
	for id := range watch.excluded {
		if !byzAttacker(id) {
			t.Fatalf("honest client %d was excluded as quarantined", id)
		}
	}
	if len(watch.excluded) != byzF {
		t.Fatalf("observers saw %d quarantined clients, want %d", len(watch.excluded), byzF)
	}
	watch.mu.Unlock()

	// Checkpoint the federation and restore it into a freshly built server
	// with a FRESH reputation tracker: the snapshot, not process memory,
	// must carry the quarantine.
	st, err := srv.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	p2 := policy()
	resumed := byzServer(t, train, signFlipAttack, p2, true)
	if err := resumed.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < byzN; id++ {
		if byzAttacker(id) != p2.Reputation.Blocked(id) {
			t.Fatalf("restore changed quarantine for client %d: blocked=%v",
				id, p2.Reputation.Blocked(id))
		}
	}
	if err := resumed.Run(byzRounds); err != nil {
		t.Fatal(err)
	}
	for id := byzN - byzF; id < byzN; id++ {
		if !p2.Reputation.Blocked(id) {
			t.Fatalf("attacker %d was amnestied after resume", id)
		}
	}
	// With the attackers locked out the federation trains on clean inputs.
	if acc := byzAccuracy(t, train, test, resumed.Global()); acc < 0.6 {
		t.Fatalf("resumed federation accuracy %.3f, want ≥ 0.6", acc)
	}
}
