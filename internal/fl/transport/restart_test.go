package transport

// Crash harness for the TCP deployment path: the coordinator process is
// killed between rounds (faults.CrashAt), restarted on the same address
// from its durable snapshot, and the surviving clients — riding the
// outage on RunClientRetry — reconnect with their session token, roll
// their local state back to the resume round, and finish. The final
// global must be bit-identical to an uninterrupted durable run.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// buildStatefulClients is buildClients with resumable clients: each runs
// on a serializable RNG source and tracks its shard order, so it can
// capture and roll back local state across a coordinator restart.
func buildStatefulClients(t *testing.T, k int) ([]fl.Client, []float64) {
	t.Helper()
	train, _, err := datasets.SyntheticImages(datasets.ImageConfig{
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
		clients[i] = fl.NewStatefulLegacyClient(i, net, shards[i], fl.ClientConfig{
			BatchSize: 16, LR: func(int) float64 { return 0.08 }, Momentum: 0.9,
		}, nil, int64(i+50))
	}
	return clients, initial
}

func TestCoordinatorRestartResumesBitIdentical(t *testing.T) {
	const k, rounds, every = 2, 6, 2

	// Uninterrupted durable run: the reference result.
	baseClients, initial := buildStatefulClients(t, k)
	baseMgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "base.ckpt")}
	base := &Coordinator{
		NumClients: k, Rounds: rounds, Initial: initial,
		Checkpoint: baseMgr, CheckpointEvery: every,
	}
	addrCh := make(chan string, 1)
	var (
		wantGlobal []float64
		baseErr    error
		wg         sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		wantGlobal, baseErr = base.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh
	var cwg sync.WaitGroup
	for _, c := range baseClients {
		cwg.Add(1)
		go func(c fl.Client) {
			defer cwg.Done()
			if err := RunClientRetry(addr, c, RetryConfig{}); err != nil {
				t.Error(err)
			}
		}(c)
	}
	cwg.Wait()
	wg.Wait()
	if baseErr != nil {
		t.Fatal(baseErr)
	}

	// Crashing run: checkpoints land after rounds 1, 3, 5; the crash after
	// round 2 rewinds the federation to round 2, so reconnecting clients
	// must roll back one round from their in-memory captures.
	crashClients, initial2 := buildStatefulClients(t, k)
	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	first := &Coordinator{
		NumClients: k, Rounds: rounds, Initial: initial2,
		Checkpoint: mgr, CheckpointEvery: every,
		AfterRound: faults.CrashAt(2),
	}
	addrCh2 := make(chan string, 1)
	var firstErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, firstErr = first.ListenAndRun("127.0.0.1:0", func(a string) { addrCh2 <- a })
	}()
	addr2 := <-addrCh2

	clientErrs := make([]error, k)
	for i, c := range crashClients {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClientRetry(addr2, c, RetryConfig{
				MaxAttempts: 50,
				BaseDelay:   5 * time.Millisecond,
			})
		}(i, c)
	}
	wg.Wait() // coordinator process 1 dies
	if !errors.Is(firstErr, faults.ErrCrash) {
		t.Fatalf("first coordinator: got %v, want ErrCrash", firstErr)
	}

	// Restart on the same address from the snapshot; the clients are still
	// out there retrying.
	snap, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.NextRound != 2 {
		t.Fatalf("snapshot resumes at round %d, want 2", snap.State.NextRound)
	}
	second := &Coordinator{
		NumClients: k, Rounds: rounds, Initial: initial2,
		Checkpoint: mgr, CheckpointEvery: every,
		Restore: snap,
	}
	var gotGlobal []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		gotGlobal, err = second.ListenAndRun(addr2, nil)
		if err != nil {
			t.Error(err)
		}
	}()
	cwg.Wait()
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	if len(gotGlobal) != len(wantGlobal) {
		t.Fatalf("global length %d vs %d", len(gotGlobal), len(wantGlobal))
	}
	for i := range wantGlobal {
		if gotGlobal[i] != wantGlobal[i] {
			t.Fatalf("global[%d]: %v vs %v — restarted federation is not bit-identical",
				i, gotGlobal[i], wantGlobal[i])
		}
	}
}

// TestClientStopsCleanlyMidFederation drives the client-side graceful
// shutdown: a Stop signal mid-round makes RunClientRetry return
// ErrClientStopped instead of hanging on the next round message.
func TestClientStopsCleanlyMidFederation(t *testing.T) {
	const k = 2
	clients, initial := buildStatefulClients(t, k)
	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	stopSrv := make(chan struct{})
	coord := &Coordinator{
		NumClients: k, Rounds: 1000, Initial: initial,
		Checkpoint: mgr, CheckpointEvery: 1,
		AfterRound: func(round int) error {
			if round == 1 {
				close(stopSrv)
			}
			return nil
		},
		Stop: stopSrv,
	}
	addrCh := make(chan string, 1)
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	stopClients := make(chan struct{})
	clientErrs := make([]error, k)
	var cwg sync.WaitGroup
	for i, c := range clients {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClientRetry(addr, c, RetryConfig{
				MaxAttempts: 20,
				BaseDelay:   5 * time.Millisecond,
				Stop:        stopClients,
			})
		}(i, c)
	}
	wg.Wait()
	if !errors.Is(srvErr, fl.ErrStopped) {
		t.Fatalf("coordinator: got %v, want ErrStopped", srvErr)
	}
	// The coordinator is gone; stop the clients, which are either blocked
	// on a dead connection or backing off toward a redial.
	close(stopClients)
	cwg.Wait()
	for i, err := range clientErrs {
		if !errors.Is(err, ErrClientStopped) {
			t.Fatalf("client %d: got %v, want ErrClientStopped", i, err)
		}
	}
}
