package transport

// TCP Byzantine chaos suite: attackers behind real connections, robust
// aggregation on the coordinator, reputation-driven quarantine enforced at
// the transport (no round message for quarantined clients, connection kept
// open), and a coordinator kill→restart→resume proving the quarantine
// rides the durable snapshot — a restart must not amnesty an attacker.

import (
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/rng"
)

const (
	tbN   = 6 // roster size
	tbBad = 5 // the attacker's client id (f = 1 < n/3)
	tbDim = 4
)

// stepClient is a cheap, stateless, deterministic client: it returns
// global + step on every coordinate. Steps differ slightly per client so
// deviation scores see a realistic honest spread. Being stateless it
// trivially satisfies StatefulClient, which the durable session capture /
// rollback path requires.
type stepClient struct {
	id   int
	step float64
}

func (c *stepClient) ID() int         { return c.id }
func (c *stepClient) NumSamples() int { return 10 }
func (c *stepClient) TrainLocal(_ int, global []float64) (fl.Update, error) {
	p := make([]float64, len(global))
	for i := range p {
		p[i] = global[i] + c.step
	}
	return fl.Update{ClientID: c.id, Params: p, NumSamples: 10, TrainLoss: 1}, nil
}
func (c *stepClient) CaptureState() ([]byte, error) { return []byte{1}, nil }
func (c *stepClient) RestoreState([]byte) error     { return nil }

// byzRoster builds the n-client roster with client tbBad sign-flipping
// every round.
func byzRoster() []fl.Client {
	clients := make([]fl.Client, tbN)
	for i := 0; i < tbN; i++ {
		var c fl.Client = &stepClient{id: i, step: 0.1 + 0.002*float64(i)}
		if i == tbBad {
			c = faults.NewSignFlip(c, 3, nil)
		}
		clients[i] = c
	}
	return clients
}

// runByzFederation drives one coordinator plus the full roster and returns
// the final global.
func runByzFederation(t *testing.T, coord *Coordinator, retry func(i int) RetryConfig) []float64 {
	t.Helper()
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
	for i, c := range byzRoster() {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			if err := RunClientRetry(addr, c, retry(i)); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i, c)
	}
	cwg.Wait()
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return global
}

func TestTCPByzantineQuarantine(t *testing.T) {
	rep := robust.NewReputation(0)
	coord := &Coordinator{
		NumClients: tbN, Rounds: 8,
		Initial:    make([]float64, tbDim),
		MinQuorum:  3,
		Robust:     robust.Median{},
		Reputation: rep,
	}
	global := runByzFederation(t, coord, func(i int) RetryConfig {
		return RetryConfig{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond}
	})

	if !rep.Blocked(tbBad) {
		t.Fatalf("attacker %d not quarantined (state %v, score %.3f)",
			tbBad, rep.StateOf(tbBad), rep.ScoreOf(tbBad))
	}
	for id := 0; id < tbN-1; id++ {
		if rep.StateOf(id) != robust.Healthy {
			t.Fatalf("honest client %d state = %v, want healthy", id, rep.StateOf(id))
		}
	}
	// The median absorbed the attack: 8 rounds of ~0.105 honest drift.
	for i, v := range global {
		if v < 0.7 {
			t.Fatalf("global[%d] = %.3f — sign-flip attack dragged the TCP aggregate", i, v)
		}
	}
}

// TestTCPByzantineQuarantineSurvivesRestart kills the coordinator after the
// attacker is quarantined, restarts it from the snapshot with a FRESH
// reputation tracker, and requires (a) the attacker stays quarantined
// through the resumed rounds and (b) the final global is bit-identical to
// an uninterrupted durable run — the same determinism bar as the PR 4
// restart tests, now with robust aggregation and quarantine in the loop.
func TestTCPByzantineQuarantineSurvivesRestart(t *testing.T) {
	const rounds, every = 10, 2
	build := func(mgr *checkpoint.Manager, rep *robust.Reputation, afterRound func(int) error,
		restore *checkpoint.Snapshot) *Coordinator {
		return &Coordinator{
			NumClients: tbN, Rounds: rounds,
			Initial:    make([]float64, tbDim),
			MinQuorum:  3,
			Robust:     robust.Median{},
			Reputation: rep,
			Checkpoint: mgr, CheckpointEvery: every,
			AfterRound: afterRound,
			Restore:    restore,
		}
	}
	retry := func(i int) RetryConfig {
		return RetryConfig{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond}
	}

	// Reference: uninterrupted durable run.
	refMgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "ref.ckpt")}
	want := runByzFederation(t, build(refMgr, robust.NewReputation(0), nil, nil), retry)

	// Crashing run: the attacker is quarantined at the end of round 2; the
	// crash after round 4 rewinds to the round-3 snapshot, so the restarted
	// coordinator replays round 4 and must already know about the attacker.
	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	rep1 := robust.NewReputation(0)
	first := build(mgr, rep1, faults.CrashAt(4), nil)
	addrCh := make(chan string, 1)
	var (
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, firstErr = first.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh
	clientErrs := make([]error, tbN)
	var cwg sync.WaitGroup
	for i, c := range byzRoster() {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClientRetry(addr, c, retry(i))
		}(i, c)
	}
	wg.Wait() // coordinator process 1 dies
	if !errors.Is(firstErr, faults.ErrCrash) {
		t.Fatalf("first coordinator: got %v, want ErrCrash", firstErr)
	}
	if !rep1.Blocked(tbBad) {
		t.Fatalf("attacker not quarantined before the crash (state %v)", rep1.StateOf(tbBad))
	}

	snap, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.NextRound != 4 {
		t.Fatalf("snapshot resumes at round %d, want 4", snap.State.NextRound)
	}
	if snap.State.Reputation == nil {
		t.Fatal("snapshot is missing the reputation blob")
	}

	// Fresh tracker: only the snapshot can carry the quarantine across.
	rep2 := robust.NewReputation(0)
	second := build(mgr, rep2, nil, snap)
	var got []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		got, err = second.ListenAndRun(addr, nil)
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

	if !rep2.Blocked(tbBad) {
		t.Fatalf("restart amnestied the attacker (state %v)", rep2.StateOf(tbBad))
	}
	for id := 0; id < tbN-1; id++ {
		if rep2.StateOf(id) != robust.Healthy {
			t.Fatalf("honest client %d state after restart = %v, want healthy", id, rep2.StateOf(id))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("global length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("global[%d]: %v vs %v — restarted byzantine federation is not bit-identical",
				i, got[i], want[i])
		}
	}
}

// TestRetryJitterDeterministic: the backoff jitter is seeded with the
// participant's own ID (a client's ID, a leaf's ID complemented), so
// participants that lost the same parent redial on different schedules,
// one participant reproduces its own, and every delay stays within
// [1-retryJitter, 1+retryJitter] of its un-jittered value.
func TestRetryJitterDeterministic(t *testing.T) {
	rc := RetryConfig{}.withDefaults()
	schedule := func(seed int64) []time.Duration {
		jitter, _ := rng.New(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = rc.backoff(i+1, jitter)
		}
		return out
	}
	seeds := map[string]int64{"client 1": 1, "client 2": 2, "leaf 1": ^int64(1)}
	for who, seed := range seeds {
		a, b := schedule(seed), schedule(seed)
		if !slices.Equal(a, b) {
			t.Fatalf("%s does not reproduce its schedule: %v vs %v", who, a, b)
		}
		for other, o := range seeds {
			if other != who && slices.Equal(a, schedule(o)) {
				t.Fatalf("%s and %s back off in lockstep: %v", who, other, a)
			}
		}
		base := rc.BaseDelay
		for i, d := range a {
			lo := time.Duration(float64(base) * (1 - retryJitter))
			hi := time.Duration(float64(base) * (1 + retryJitter))
			if d < lo || d > hi {
				t.Fatalf("%s: backoff(%d) = %v outside [%v, %v]", who, i+1, d, lo, hi)
			}
			base = min(2*base, maxRetryDelay)
		}
	}
}
