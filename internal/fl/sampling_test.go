package fl

import "testing"

// countingClient records how many rounds it participated in.
type countingClient struct {
	id     int
	rounds int
	dim    int
}

func (c *countingClient) ID() int         { return c.id }
func (c *countingClient) NumSamples() int { return 10 }
func (c *countingClient) TrainLocal(_ int, global []float64) (Update, error) {
	c.rounds++
	p := make([]float64, len(global))
	copy(p, global)
	return Update{Params: p, NumSamples: 10, TrainLoss: 1}, nil
}

func TestClientSamplingFraction(t *testing.T) {
	const k, rounds = 10, 40
	clients := make([]Client, k)
	counters := make([]*countingClient, k)
	for i := range clients {
		cc := &countingClient{id: i, dim: 3}
		clients[i] = cc
		counters[i] = cc
	}
	srv := NewServer([]float64{1, 2, 3}, clients...)
	srv.Policy = &RoundPolicy{SampleFraction: 0.5, SampleSeed: 1}
	if err := srv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counters {
		total += c.rounds
		if c.rounds == 0 {
			t.Errorf("client %d never sampled in %d rounds", c.id, rounds)
		}
	}
	want := rounds * k / 2
	if total != want {
		t.Fatalf("total participations = %d, want exactly %d (5 of 10 per round)", total, want)
	}
}

func TestClientSamplingObserverSeesIDs(t *testing.T) {
	const k = 6
	clients := make([]Client, k)
	for i := range clients {
		clients[i] = &countingClient{id: i}
	}
	rec := &HistoryRecorder{}
	srv := NewServer([]float64{0}, clients...)
	srv.Policy = &RoundPolicy{SampleFraction: 0.5, SampleSeed: 2}
	srv.Observers = append(srv.Observers, rec)
	if err := srv.Run(3); err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Rounds {
		if len(r.TrainLosses) != 3 {
			t.Fatalf("round %d observed %d updates, want 3", r.Round, len(r.TrainLosses))
		}
	}
}

func TestSamplingDisabledByDefault(t *testing.T) {
	const k = 4
	clients := make([]Client, k)
	counters := make([]*countingClient, k)
	for i := range clients {
		cc := &countingClient{id: i}
		clients[i] = cc
		counters[i] = cc
	}
	srv := NewServer([]float64{0}, clients...)
	if err := srv.Run(5); err != nil {
		t.Fatal(err)
	}
	for _, c := range counters {
		if c.rounds != 5 {
			t.Fatalf("client %d trained %d rounds, want 5 (no sampling)", c.id, c.rounds)
		}
	}
}

func TestUpdateCarriesClientID(t *testing.T) {
	clients := []Client{&countingClient{id: 7}}
	rec := &HistoryRecorder{}
	srv := NewServer([]float64{0}, clients...)
	srv.Observers = append(srv.Observers, rec)
	var seen []int
	srv.Observers = append(srv.Observers, observerFunc(func(_ int, _ []float64, updates []Update) {
		for _, u := range updates {
			seen = append(seen, u.ClientID)
		}
	}))
	if err := srv.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != 7 {
		t.Fatalf("observer saw client IDs %v, want [7]", seen)
	}
}

type observerFunc func(round int, global []float64, updates []Update)

func (f observerFunc) ObserveRound(round int, global []float64, updates []Update) {
	f(round, global, updates)
}
