package fl

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// faultyClient fails, poisons, or mis-sizes its update on demand.
type faultyClient struct {
	countingClient
	failAlways bool
	nanAlways  bool
	extraDim   int
}

func (c *faultyClient) TrainLocal(round int, global []float64) (Update, error) {
	if c.failAlways {
		return Update{}, errors.New("boom")
	}
	u, err := c.countingClient.TrainLocal(round, global)
	if err != nil {
		return u, err
	}
	if c.nanAlways {
		u.Params[0] = math.NaN()
	}
	if c.extraDim > 0 {
		u.Params = append(u.Params, make([]float64, c.extraDim)...)
	}
	return u, nil
}

func TestRoundPolicyDropsFailingClientAndAggregatesQuorum(t *testing.T) {
	good := make([]*countingClient, 3)
	clients := []Client{}
	for i := range good {
		good[i] = &countingClient{id: i}
		clients = append(clients, good[i])
	}
	bad := &faultyClient{countingClient: countingClient{id: 3}, failAlways: true}
	clients = append(clients, bad)

	rec := &HistoryRecorder{}
	srv := NewServer([]float64{1, 2}, clients...)
	srv.Policy = &RoundPolicy{MinQuorum: 3}
	srv.Observers = append(srv.Observers, rec)
	if err := srv.Run(4); err != nil {
		t.Fatal(err)
	}
	for _, c := range good {
		if c.rounds != 4 {
			t.Fatalf("good client %d trained %d rounds, want 4", c.id, c.rounds)
		}
	}
	if len(rec.Rounds) != 4 {
		t.Fatalf("observer saw %d rounds, want 4", len(rec.Rounds))
	}
	for _, r := range rec.Rounds {
		if len(r.TrainLosses) != 3 {
			t.Fatalf("round %d aggregated %d updates, want 3", r.Round, len(r.TrainLosses))
		}
		if len(r.Dropped) != 1 || r.Dropped[0].ClientID != 3 || r.Dropped[0].Reason != FailTrain {
			t.Fatalf("round %d dropped = %+v, want client 3 with reason train", r.Round, r.Dropped)
		}
	}
}

func TestRoundPolicyQuorumLost(t *testing.T) {
	clients := []Client{
		&countingClient{id: 0},
		&faultyClient{countingClient: countingClient{id: 1}, failAlways: true},
	}
	srv := NewServer([]float64{0}, clients...)
	srv.Policy = &RoundPolicy{MinQuorum: 2}
	if err := srv.Run(1); err == nil {
		t.Fatal("expected quorum-lost error with 1 valid update and MinQuorum=2")
	}
}

func TestRoundPolicyRejectsInvalidUpdates(t *testing.T) {
	clients := []Client{
		&countingClient{id: 0},
		&faultyClient{countingClient: countingClient{id: 1}, nanAlways: true},
		&faultyClient{countingClient: countingClient{id: 2}, extraDim: 5},
	}
	rec := &HistoryRecorder{}
	srv := NewServer([]float64{1, 1}, clients...)
	srv.Policy = &RoundPolicy{MinQuorum: 1}
	srv.Observers = append(srv.Observers, rec)
	if err := srv.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Rounds {
		if len(r.TrainLosses) != 1 {
			t.Fatalf("round %d aggregated %d updates, want 1", r.Round, len(r.TrainLosses))
		}
		if len(r.Dropped) != 2 {
			t.Fatalf("round %d dropped %d clients, want 2", r.Round, len(r.Dropped))
		}
		for _, f := range r.Dropped {
			if f.Reason != FailInvalid {
				t.Fatalf("dropped client %d reason = %q, want invalid", f.ClientID, f.Reason)
			}
		}
	}
}

// TestFailStopRejectsInvalidUpdates: a nil-Policy round validates every
// update as a RoundPolicy round does, and the first failure in roster
// order aborts the round with an error naming that client — the global a
// NaN or mis-sized update would have produced is never installed.
func TestFailStopRejectsInvalidUpdates(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  *faultyClient
		want string
	}{
		{"nan", &faultyClient{countingClient: countingClient{id: 1}, nanAlways: true},
			"client 1 failed (invalid): fl: client 1 update has NaN at param 0"},
		{"oversize", &faultyClient{countingClient: countingClient{id: 1}, extraDim: 5},
			"client 1 failed (invalid): fl: client 1 update has 7 params, want 2"},
		{"train", &faultyClient{countingClient: countingClient{id: 1}, failAlways: true},
			"client 1 failed (train): boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			later := &faultyClient{countingClient: countingClient{id: 2}, nanAlways: true}
			srv := NewServer([]float64{1, 2}, &countingClient{id: 0}, tc.bad, later)
			err := srv.RunRound(0)
			if err == nil {
				t.Fatalf("round installed %v, want an error naming client 1", srv.Global())
			}
			if want := "fl: round 0: " + tc.want; err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
			if g := srv.Global(); g[0] != 1 || g[1] != 2 || srv.Round() != 0 {
				t.Fatalf("failed round moved the server: global %v, round %d", g, srv.Round())
			}
		})
	}
}

// TestSampledRoundQuorumAgainstParticipants: with client sampling on, the
// quorum check must apply to the sampled participants, so a sampled round
// where some participants fail still succeeds as long as enough of the
// *sample* produced valid updates — it must not demand the full roster.
func TestSampledRoundQuorumAgainstParticipants(t *testing.T) {
	const k, rounds = 10, 12
	clients := make([]Client, k)
	for i := 0; i < k; i++ {
		if i < 2 {
			clients[i] = &faultyClient{countingClient: countingClient{id: i}, failAlways: true}
		} else {
			clients[i] = &countingClient{id: i}
		}
	}
	rec := &HistoryRecorder{}
	srv := NewServer([]float64{0}, clients...)
	srv.Policy = &RoundPolicy{MinQuorum: 3, SampleFraction: 0.5, SampleSeed: 3}
	srv.Observers = append(srv.Observers, rec)
	// Worst case a round samples both failing clients: 3 of 5 participants
	// still succeed, which meets MinQuorum=3. Every round must pass.
	if err := srv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	sawFailure := false
	for _, r := range rec.Rounds {
		// Valid + dropped must cover exactly the sampled participants.
		if got := len(r.TrainLosses) + len(r.Dropped); got != 5 {
			t.Fatalf("round %d accounted for %d participants, want 5", r.Round, got)
		}
		if len(r.Dropped) > 0 {
			sawFailure = true
			for _, f := range r.Dropped {
				if f.ClientID >= 2 {
					t.Fatalf("round %d dropped healthy client %d", r.Round, f.ClientID)
				}
			}
		}
	}
	if !sawFailure {
		t.Fatal("sampling never selected a failing client; test needs a different seed")
	}
}

func TestAggregateLengthMismatchError(t *testing.T) {
	updates := []Update{
		{ClientID: 0, Params: []float64{1}, NumSamples: 1},
		{ClientID: 1, Params: []float64{1, 2}, NumSamples: 1},
	}
	if _, err := Aggregate(updates); err == nil {
		t.Fatal("expected error aggregating mismatched param lengths")
	}
	// Shorter-first must also error, not panic.
	if _, err := Aggregate([]Update{updates[0], {ClientID: 2, Params: []float64{1, 2, 3}}}); err == nil {
		t.Fatal("expected error when a longer Params follows a shorter one")
	}
	if _, err := Aggregate(nil); err == nil {
		t.Fatal("expected error aggregating zero updates")
	}
}

func TestValidateUpdate(t *testing.T) {
	ok := Update{ClientID: 1, Params: []float64{0, 1.5, -2}}
	if err := ValidateUpdate(ok, 3); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	cases := []Update{
		{Params: []float64{0, 1}},               // short
		{Params: []float64{0, 1, 2, 3}},         // long
		{Params: []float64{0, math.NaN(), 2}},   // NaN
		{Params: []float64{0, math.Inf(-1), 2}}, // -Inf
		{Params: []float64{math.Inf(1), 1, 2}},  // +Inf
	}
	for i, u := range cases {
		if err := ValidateUpdate(u, 3); err == nil {
			t.Fatalf("case %d: invalid update accepted", i)
		}
	}
}

// TestValidationMessages: a NaN, +Inf or −Inf at the first, a middle or
// the last coordinate is reported by ValidateUpdate, ValidateSparse (a
// dense delta) and ValidatePartial with its kind and index in exactly
// these words, and the extreme finite values around it are accepted.
func TestValidationMessages(t *testing.T) {
	base := []float64{1, math.MaxFloat64, 5e-324, math.Copysign(0, -1), -math.MaxFloat64}
	for _, bad := range []struct {
		v    float64
		kind string
	}{{math.NaN(), "NaN"}, {math.Inf(1), "Inf"}, {math.Inf(-1), "Inf"}} {
		for _, at := range []int{0, len(base) / 2, len(base) - 1} {
			v := append([]float64(nil), base...)
			v[at] = bad.v
			got := []error{
				ValidateUpdate(Update{ClientID: 7, Params: v}, len(v)),
				ValidateUpdate(Update{ClientID: 7, Params: v, IsDelta: true, DenseLen: len(v)}, len(v)),
				ValidatePartial(Partial{LeafID: 2, Sum: v, Weight: 1, Count: 1}, len(v), 0),
			}
			want := []string{
				fmt.Sprintf("fl: client 7 update has %s at param %d", bad.kind, at),
				fmt.Sprintf("fl: client 7 sparse update has %s at position %d", bad.kind, at),
				fmt.Sprintf("fl: leaf 2 partial has non-finite sum at param %d", at),
			}
			for i := range got {
				if got[i] == nil || got[i].Error() != want[i] {
					t.Errorf("%v at %d: got %v, want %q", bad.v, at, got[i], want[i])
				}
			}
		}
	}
	if err := ValidateUpdate(Update{Params: base}, len(base)); err != nil {
		t.Fatalf("extreme finite values rejected: %v", err)
	}
	if err := ValidatePartial(Partial{Sum: base, Weight: 1, Count: 1}, len(base), 0); err != nil {
		t.Fatalf("extreme finite sums rejected: %v", err)
	}
}
