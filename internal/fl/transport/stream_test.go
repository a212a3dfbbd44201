package transport

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// vecClient produces a deterministic update from (id, round, global), so
// any two federations over the same roster must agree bit for bit.
type vecClient struct {
	id      int
	samples int
	rounds  int32 // TrainLocal invocations, for sampling assertions
}

func (c *vecClient) ID() int         { return c.id }
func (c *vecClient) NumSamples() int { return c.samples }
func (c *vecClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	atomic.AddInt32(&c.rounds, 1)
	p := make([]float64, len(global))
	for i := range p {
		p[i] = global[i] + float64(c.id+1)*0.01*float64(i+1) + float64(round)*0.001
	}
	return fl.Update{Params: p, NumSamples: c.samples, TrainLoss: 1}, nil
}

// runVecFederation runs one federation over n fresh vecClients and
// returns the final global plus the clients (for participation counts).
func runVecFederation(t *testing.T, coord *Coordinator, n int) ([]float64, []*vecClient) {
	t.Helper()
	addr, wait := startCoordinator(t, coord)
	clients := make([]*vecClient, n)
	var cwg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		clients[i] = &vecClient{id: i, samples: 5 + 3*i}
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			errs[i] = RunClient(addr, clients[i])
		}(i)
	}
	global, srvErr := wait()
	cwg.Wait()
	if srvErr != nil {
		t.Fatalf("coordinator: %v", srvErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return global, clients
}

// TestFlatTCPMatchesInProcess is the differential oracle between the two
// round engines: a flat TCP federation over 5 vecClients and an
// in-process fl.Server over the same roster must agree bit for bit — the
// final global and every HistoryRecorder record — for every aggregation
// rule, with and without an observer and a reputation tracker, at windows
// 1 (fully serialized), 2 and 64 (fully concurrent), whatever order the
// clients' answers arrive in.
func TestFlatTCPMatchesInProcess(t *testing.T) {
	const n, rounds = 5, 3
	initial := make([]float64, 33)
	for i := range initial {
		initial[i] = math.Sin(float64(i)) * 2
	}
	rules := []struct {
		name string
		rule robust.Aggregator
		rep  bool // also run with a reputation tracker
	}{
		{"fedavg", nil, true},
		{"mean", robust.Mean{}, false},
		{"clipped", robust.ClippedMean{MaxNorm: 0.05}, false},
		{"median", robust.Median{}, true},
		{"trimmed", robust.TrimmedMean{Frac: 0.2}, false},
	}
	for _, r := range rules {
		for _, rep := range []bool{false, true} {
			if rep && !r.rep {
				continue
			}
			for _, observe := range []bool{false, true} {
				name := r.name
				if rep {
					name += "/reputation"
				}
				if observe {
					name += "/history"
				}
				newRep := func() *robust.Reputation {
					if !rep {
						return nil
					}
					return robust.NewReputation(robust.ReputationConfig{})
				}
				// The in-process reference.
				clients := make([]fl.Client, n)
				for i := range clients {
					clients[i] = &vecClient{id: i, samples: 5 + 3*i}
				}
				srv := fl.NewServer(initial, clients...)
				if r.rule != nil || rep {
					srv.Policy = &fl.RoundPolicy{Robust: r.rule, Reputation: newRep()}
				}
				wantRec := &fl.HistoryRecorder{KeepParams: true}
				if observe {
					srv.Observers = []fl.RoundObserver{wantRec}
				}
				if err := srv.Run(rounds); err != nil {
					t.Fatalf("%s: in-process: %v", name, err)
				}
				want := srv.Global()

				for _, w := range []int{1, 2, 64} {
					t.Run(fmt.Sprintf("%s/w%d", name, w), func(t *testing.T) {
						rec := &fl.HistoryRecorder{KeepParams: true}
						coord := &Coordinator{
							NumClients: n, Rounds: rounds, Initial: initial,
							Robust: r.rule, Reputation: newRep(), MaxInflightUpdates: w,
						}
						if observe {
							coord.Observers = []fl.RoundObserver{rec}
						}
						got, _ := runVecFederation(t, coord, n)
						sameBits(t, "final global", got, want)
						if len(rec.Rounds) != len(wantRec.Rounds) {
							t.Fatalf("recorded %d rounds, in process %d", len(rec.Rounds), len(wantRec.Rounds))
						}
						for i, rr := range rec.Rounds {
							wr := wantRec.Rounds[i]
							sameBits(t, fmt.Sprintf("round %d global", rr.Round), rr.Global, wr.Global)
							sameBits(t, fmt.Sprintf("round %d losses", rr.Round), rr.TrainLosses, wr.TrainLosses)
							if len(rr.LocalParams) != len(wr.LocalParams) {
								t.Fatalf("round %d: %d updates recorded, in process %d", rr.Round, len(rr.LocalParams), len(wr.LocalParams))
							}
							for j := range rr.LocalParams {
								sameBits(t, fmt.Sprintf("round %d update %d", rr.Round, j), rr.LocalParams[j], wr.LocalParams[j])
							}
						}
					})
				}
			}
		}
	}
}

// TestSampledCohortsAreDeterministic: SampleFraction selects exactly
// round(f·roster) clients per round (never below quorum), and the
// per-client participation schedule is a pure function of (seed, round):
// two federations with the same seed pick identical cohorts.
func TestSampledCohortsAreDeterministic(t *testing.T) {
	const n, rounds = 4, 6
	run := func(seed int64) []int32 {
		coord := &Coordinator{
			NumClients: n, Rounds: rounds, Initial: []float64{1, 2},
			MinQuorum: 2, SampleFraction: 0.5, SampleSeed: seed,
		}
		_, clients := runVecFederation(t, coord, n)
		counts := make([]int32, n)
		var total int32
		for i, c := range clients {
			counts[i] = atomic.LoadInt32(&c.rounds)
			total += counts[i]
		}
		if total != rounds*2 {
			t.Fatalf("seed %d: %d total exchanges, want %d (2 per round)", seed, total, rounds*2)
		}
		return counts
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: client %d trained %d vs %d rounds", i, a[i], b[i])
		}
	}
	// A weighted sampler must not be degenerate: over 6 rounds of 2-of-4,
	// no single client can own every slot.
	for i, c := range a {
		if c == rounds {
			t.Fatalf("client %d sampled every round — sampler looks degenerate: %v", i, a)
		}
	}
}

// TestRejoinJoinsMidFederation: with AcceptRejoins, a client that dials
// after the federation has started is parked by the accept loop and
// admitted at the next round boundary, then participates normally.
func TestRejoinJoinsMidFederation(t *testing.T) {
	const rounds = 5
	late := &vecClient{id: 2, samples: 9}
	lateErr := make(chan error, 1)
	var launched bool
	var addr string
	coord := &Coordinator{
		NumClients: 2, Rounds: rounds, Initial: []float64{1, -2, 3},
		MinQuorum: 2, AcceptRejoins: true,
	}
	coord.AfterRound = func(round int) error {
		if round == 1 && !launched {
			launched = true
			go func() { lateErr <- RunClient(addr, late) }()
			// Give the hello/park handshake time to land so the round-2
			// boundary admits the newcomer.
			time.Sleep(500 * time.Millisecond)
		}
		return nil
	}

	var wait func() ([]float64, error)
	addr, wait = startCoordinator(t, coord)
	var cwg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			errs[i] = RunClient(addr, &vecClient{id: i, samples: 10})
		}(i)
	}
	_, srvErr := wait()
	cwg.Wait()
	if srvErr != nil {
		t.Fatalf("coordinator: %v", srvErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("original client %d: %v", i, err)
		}
	}
	if err := <-lateErr; err != nil {
		t.Fatalf("late client: %v", err)
	}
	got := atomic.LoadInt32(&late.rounds)
	if got == 0 || got > rounds-2 {
		t.Fatalf("late client trained %d rounds, want 1..%d", got, rounds-2)
	}
}
