package transport

import (
	"cmp"
	"fmt"
	"math"
	"net"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/faults"
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
	clients := make([]*vecClient, n)
	roster := make([]fl.Client, n)
	for i := range clients {
		clients[i] = &vecClient{id: i, samples: 5 + 3*i}
		roster[i] = clients[i]
	}
	global, errs, srvErr := runFederation(t, coord, roster, RetryConfig{})
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

// runFederation runs coord over the roster, each client dialing once with
// rc, and returns the coordinator's result and every client's error.
func runFederation(t *testing.T, coord *Coordinator, roster []fl.Client, rc RetryConfig) ([]float64, []error, error) {
	t.Helper()
	addr, wait := startCoordinator(t, coord)
	var cwg sync.WaitGroup
	errs := make([]error, len(roster))
	for i, c := range roster {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			errs[i] = RunClientRetry(addr, c, rc)
		}()
	}
	global, srvErr := wait()
	cwg.Wait()
	return global, errs, srvErr
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
						sameHistory(t, rec, wantRec)
					})
				}
			}
		}
	}
	roundRulesMatch(t, initial)
}

// roundRulesMatch is the oracle's second table: the round rules both
// engines run from one copy in package fl — SampleCohort, validation and
// the fail-stop and quorum paths, and ScoreReputation above — over
// compression {none, topk8, q16} × sampling {off, 0.5} × failures {clean,
// fail-stop with a NaN client in round 1, MinQuorum 3 with a NaN update in
// the final round} × windows {1, 64}. A fail-stop run samples on neither
// engine (the coordinator refuses it; in process sampling needs a
// RoundPolicy), and in process compression needs a RoundPolicy too, so
// fail-stop rows run dense and unsampled. The roster is 8 clients, so a
// sampled cohort of 4 keeps MinQuorum 3 after one invalid update. The
// invalid update comes in the final round because the engines part after
// it by design: TCP closes a failed client's connection and drops it from
// the roster, in process it trains again next round.
func roundRulesMatch(t *testing.T, initial []float64) {
	const n, rounds, seed = 8, 3, 5
	for _, mode := range []string{"", "topk8", "q16"} {
		for _, frac := range []float64{0, 0.5} {
			for _, failure := range []string{"clean", "fail-stop", "quorum"} {
				if failure == "fail-stop" && (mode != "" || frac > 0) {
					continue
				}
				name := fmt.Sprintf("rules/%s/sample%v/%s", cmp.Or(mode, "dense"), frac, failure)
				quorum := map[string]int{"clean": 0, "fail-stop": 0, "quorum": 3}[failure]
				if frac > 0 {
					quorum = max(quorum, 1)
				}
				// roster builds a fresh federation, corrupting one client:
				// client 2 in round 1 (fail-stop), or a member of the final
				// round's cohort (quorum).
				roster := func() []fl.Client {
					clients := make([]fl.Client, n)
					for i := range clients {
						clients[i] = &vecClient{id: i, samples: 5 + 3*i}
					}
					switch failure {
					case "fail-stop":
						clients[2] = faults.NewCorrupt(clients[2], faults.CorruptNaN, faults.On(1))
					case "quorum":
						cohort, _ := fl.SampleCohort(clients, fl.Client.NumSamples, frac, seed, rounds-1, quorum)
						bad := cohort[1].ID()
						clients[bad] = faults.NewCorrupt(clients[bad], faults.CorruptNaN, faults.On(rounds-1))
					}
					return clients
				}
				m, err := compress.ParseMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				cfg := compress.Config{Mode: m, TopKFrac: 0.25}
				srv := fl.NewServer(initial, roster()...)
				if mode != "" || quorum > 0 {
					srv.Policy = &fl.RoundPolicy{MinQuorum: quorum, SampleFraction: frac, SampleSeed: seed}
					if mode != "" {
						srv.Policy.Compress = compress.NewBank(cfg)
					}
				}
				wantRec := &fl.HistoryRecorder{KeepParams: true}
				srv.Observers = []fl.RoundObserver{wantRec}
				wantErr := srv.Run(rounds)
				if (wantErr != nil) != (failure == "fail-stop") {
					t.Fatalf("%s: in-process: %v", name, wantErr)
				}
				// The row exercises what it names: 4 of 8 train when sampled,
				// and the quorum row drops one client in the final round.
				for _, r := range wantRec.Rounds {
					trained := len(r.LocalParams) + len(r.Dropped)
					if dropped := len(r.Dropped) == 1; trained != map[bool]int{false: n, true: 4}[frac > 0] ||
						dropped != (failure == "quorum" && r.Round == rounds-1) {
						t.Fatalf("%s: round %d trained %d clients, dropped %v", name, r.Round, trained, r.Dropped)
					}
				}
				for _, w := range []int{1, 64} {
					t.Run(fmt.Sprintf("%s/w%d", name, w), func(t *testing.T) {
						rec := &fl.HistoryRecorder{KeepParams: true}
						coord := &Coordinator{
							NumClients: n, Rounds: rounds, Initial: initial, MinQuorum: quorum,
							SampleFraction: frac, SampleSeed: seed, MaxInflightUpdates: w,
							Observers: []fl.RoundObserver{rec},
						}
						got, _, err := runFederation(t, coord, roster(), RetryConfig{Compress: mode, TopKFrac: cfg.TopKFrac})
						sameHistory(t, rec, wantRec)
						if wantErr != nil {
							// Both engines stop in round 1 and name client 2.
							for _, e := range []error{wantErr, err} {
								if e == nil || !strings.Contains(e.Error(), "round 1: ") ||
									clientNamed.FindStringSubmatch(e.Error())[1] != "2" {
									t.Fatalf("want a round-1 failure naming client 2; in process %v, TCP %v", wantErr, err)
								}
							}
							return
						}
						if err != nil {
							t.Fatalf("coordinator: %v", err)
						}
						sameBits(t, "final global", got, srv.Global())
					})
				}
			}
		}
	}
}

// clientNamed finds the first client an error message names.
var clientNamed = regexp.MustCompile(`client (\d+)`)

// sameHistory requires two HistoryRecorders to agree bit for bit: every
// round's pre-round global, losses and updates, and who was dropped why.
func sameHistory(t *testing.T, got, want *fl.HistoryRecorder) {
	t.Helper()
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("recorded %d rounds, in process %d", len(got.Rounds), len(want.Rounds))
	}
	for i, rr := range got.Rounds {
		wr := want.Rounds[i]
		sameBits(t, fmt.Sprintf("round %d global", rr.Round), rr.Global, wr.Global)
		sameBits(t, fmt.Sprintf("round %d losses", rr.Round), rr.TrainLosses, wr.TrainLosses)
		if len(rr.LocalParams) != len(wr.LocalParams) {
			t.Fatalf("round %d: %d updates recorded, in process %d", rr.Round, len(rr.LocalParams), len(wr.LocalParams))
		}
		for j := range rr.LocalParams {
			sameBits(t, fmt.Sprintf("round %d update %d", rr.Round, j), rr.LocalParams[j], wr.LocalParams[j])
		}
		if len(rr.Dropped) != len(wr.Dropped) {
			t.Fatalf("round %d: dropped %v, in process %v", rr.Round, rr.Dropped, wr.Dropped)
		}
		for j, f := range rr.Dropped {
			if w := wr.Dropped[j]; f.ClientID != w.ClientID || f.Reason != w.Reason {
				t.Fatalf("round %d: dropped client %d (%s), in process client %d (%s)",
					rr.Round, f.ClientID, f.Reason, w.ClientID, w.Reason)
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

// TestFailStopSamplingRefused: a fail-stop node that samples its own
// clients floors the cohort at the whole roster, so SampleFraction would
// silently train everyone; flat coordinators and leaves refuse it before
// accepting anyone. A tree parent only relays the directive and may
// carry it without a quorum (TestRootSamplingDirectiveThinsShards).
func TestFailStopSamplingRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	flat := Coordinator{NumClients: 4, Rounds: 6, Initial: []float64{1, 2}, SampleFraction: 0.5}
	if _, err := flat.RunWithListener(ln, nil); err == nil || !strings.Contains(err.Error(), "needs MinQuorum > 0") {
		t.Fatalf("flat fail-stop sampling: got %v, want a refusal", err)
	}
	leaf := &Leaf{Root: "127.0.0.1:1", Local: flat}
	if _, err := leaf.RunWithListener(ln, nil); err == nil || !strings.Contains(err.Error(), "needs MinQuorum > 0") {
		t.Fatalf("leaf fail-stop sampling: got %v, want a refusal", err)
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
