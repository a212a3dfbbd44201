package transport

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

func buildClients(t *testing.T, k int) ([]fl.Client, []float64, *datasets.Dataset) {
	t.Helper()
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 3, Train: 60, Test: 60, C: 1, H: 6, W: 6,
		Signal: 0.5, Noise: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionIID(train, k, rand.New(rand.NewSource(1)))
	clients := make([]fl.Client, k)
	var initial []float64
	for i := 0; i < k; i++ {
		net := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(net.Params())
		}
		clients[i] = fl.NewLegacyClient(i, net, shards[i], fl.ClientConfig{
			BatchSize: 16, LR: func(int) float64 { return 0.08 }, Momentum: 0.9,
		}, nil, rand.New(rand.NewSource(int64(i+50))))
	}
	return clients, initial, test
}

func TestLoopbackFederationMatchesInProcess(t *testing.T) {
	const k, rounds = 2, 10

	// In-process reference run.
	refClients, initial, test := buildClients(t, k)
	refSrv := fl.NewServer(initial, refClients...)
	if err := refSrv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	refGlobal := refSrv.Global()

	// Networked run with freshly built, identically seeded clients.
	netClients, initial2, _ := buildClients(t, k)
	coord := &Coordinator{NumClients: k, Rounds: rounds, Initial: initial2}

	addrCh := make(chan string, 1)
	var (
		global []float64
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		global, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	var cwg sync.WaitGroup
	clientErrs := make([]error, k)
	for i, c := range netClients {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClientRetry(addr, c, RetryConfig{})
		}(i, c)
	}
	cwg.Wait()
	wg.Wait()

	if srvErr != nil {
		t.Fatal(srvErr)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if len(global) != len(refGlobal) {
		t.Fatalf("global length %d != reference %d", len(global), len(refGlobal))
	}
	for i := range global {
		if math.Float64bits(global[i]) != math.Float64bits(refGlobal[i]) {
			t.Fatalf("networked and in-process runs diverged at %d: %v vs %v",
				i, global[i], refGlobal[i])
		}
	}

	// The federated model should beat chance on the test set.
	eval := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, test.In, test.NumClasses)
	if err := nn.SetFlatParams(eval.Params(), global); err != nil {
		t.Fatal(err)
	}
	if acc := fl.Evaluate(eval, test, 32); acc < 0.35 {
		t.Fatalf("networked federation accuracy = %v, want ≥0.35", acc)
	}
}

func TestCoordinatorObserversSeeUpdates(t *testing.T) {
	const k, rounds = 2, 2
	clients, initial, _ := buildClients(t, k)
	rec := &fl.HistoryRecorder{}
	coord := &Coordinator{NumClients: k, Rounds: rounds, Initial: initial,
		Observers: []fl.RoundObserver{rec}}

	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var srvErr error
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh
	var cwg sync.WaitGroup
	for _, c := range clients {
		cwg.Add(1)
		go func(c fl.Client) {
			defer cwg.Done()
			if err := RunClientRetry(addr, c, RetryConfig{}); err != nil {
				t.Errorf("client: %v", err)
			}
		}(c)
	}
	cwg.Wait()
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if len(rec.Rounds) != rounds {
		t.Fatalf("observer saw %d rounds, want %d", len(rec.Rounds), rounds)
	}
	if len(rec.Rounds[0].TrainLosses) != k {
		t.Fatalf("observer saw %d losses, want %d", len(rec.Rounds[0].TrainLosses), k)
	}
}

func TestRunClientDialFailure(t *testing.T) {
	clients, _, _ := buildClients(t, 1)
	if err := RunClientRetry("127.0.0.1:1", clients[0], RetryConfig{}); err == nil {
		t.Fatal("expected dial error")
	}
}
