package transport

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// TestChaosFederationConverges is the end-to-end fault-injection proof: a
// 4-client loopback federation with one flaky, one slow, and one
// corrupt-update client (all deterministically scheduled) must complete
// every round without coordinator error and land within an accuracy
// tolerance of the fault-free run.
//
// Fault plan:
//   - client 0: healthy
//   - client 1: flaky — training fails at round 1, which ends its session
//     and removes it from the roster
//   - client 2: slow — 150ms straggle on every round, inside the deadline,
//     so it exercises the timeout path but stays in the federation
//   - client 3: corrupt — NaN update at round 0, rejected by validation
//     and dropped
func TestChaosFederationConverges(t *testing.T) {
	const k, rounds = 4, 8
	const tolerance = 0.25 // chaos run may trail the clean run by this much accuracy

	run := func(wrap func(i int, c fl.Client) fl.Client, coord *Coordinator) ([]float64, []error) {
		clients, initial, _ := buildClients(t, k)
		coord.NumClients = k
		coord.Rounds = rounds
		coord.Initial = initial

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

		clientErrs := make([]error, k)
		var cwg sync.WaitGroup
		for i, c := range clients {
			if wrap != nil {
				c = wrap(i, c)
			}
			cwg.Add(1)
			go func(i int, c fl.Client) {
				defer cwg.Done()
				clientErrs[i] = RunClientRetry(addr, c, RetryConfig{})
			}(i, c)
		}
		cwg.Wait()
		wg.Wait()
		if srvErr != nil {
			t.Fatalf("coordinator error: %v", srvErr)
		}
		return global, clientErrs
	}

	accuracy := func(global []float64) float64 {
		_, _, test := buildClients(t, k)
		eval := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, test.In, test.NumClasses)
		if err := nn.SetFlatParams(eval.Params(), global); err != nil {
			t.Fatal(err)
		}
		return fl.Evaluate(eval, test, 32)
	}

	// Fault-free reference run (fail-stop coordinator).
	cleanGlobal, cleanErrs := run(nil, &Coordinator{})
	for i, err := range cleanErrs {
		if err != nil {
			t.Fatalf("clean run client %d: %v", i, err)
		}
	}
	cleanAcc := accuracy(cleanGlobal)

	// Chaos run with seeded faults and a fault-tolerant coordinator.
	rec := &fl.HistoryRecorder{}
	chaosGlobal, chaosErrs := run(func(i int, c fl.Client) fl.Client {
		switch i {
		case 1:
			return faults.NewFlaky(c, faults.On(1))
		case 2:
			return faults.NewSlow(c, 150*time.Millisecond, nil)
		case 3:
			return faults.NewCorrupt(c, faults.CorruptNaN, faults.On(0))
		}
		return c
	}, &Coordinator{
		MinQuorum:    1,
		RoundTimeout: 20 * time.Second,
		Observers:    []fl.RoundObserver{rec},
	})

	if chaosErrs[0] != nil {
		t.Fatalf("healthy client failed: %v", chaosErrs[0])
	}
	if chaosErrs[1] == nil {
		t.Fatal("flaky client should report its injected failure")
	}
	if chaosErrs[3] == nil {
		t.Fatal("corrupt client should be disconnected after its rejected update")
	}
	if len(rec.Rounds) != rounds {
		t.Fatalf("observer saw %d rounds, want %d", len(rec.Rounds), rounds)
	}
	droppedBy := map[int]fl.FailureReason{}
	for _, r := range rec.Rounds {
		for _, f := range r.Dropped {
			droppedBy[f.ClientID] = f.Reason
		}
	}
	if droppedBy[3] != fl.FailInvalid {
		t.Fatalf("corrupt client dropped with reason %q, want invalid", droppedBy[3])
	}
	if _, ok := droppedBy[1]; !ok {
		t.Fatal("flaky client was never dropped")
	}
	if _, ok := droppedBy[0]; ok {
		t.Fatal("healthy client was dropped")
	}
	if _, ok := droppedBy[2]; ok {
		t.Fatal("slow-but-in-deadline client was dropped")
	}
	// Final rounds aggregate the two survivors (healthy + slow).
	last := rec.Rounds[rounds-1]
	if len(last.TrainLosses) != 2 {
		t.Fatalf("final round aggregated %d updates, want 2 survivors", len(last.TrainLosses))
	}

	chaosAcc := accuracy(chaosGlobal)
	t.Logf("clean accuracy = %.3f, chaos accuracy = %.3f", cleanAcc, chaosAcc)
	if chaosAcc < cleanAcc-tolerance {
		t.Fatalf("chaos accuracy %.3f fell more than %.2f below clean accuracy %.3f",
			chaosAcc, tolerance, cleanAcc)
	}
}
