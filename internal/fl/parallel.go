package fl

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel round execution. One communication round is an embarrassingly
// parallel map over the participants — every client owns its model,
// optimizer state, and RNG — so TrainLocal calls fan out over a bounded
// worker pool. Determinism is preserved structurally (DESIGN.md §9):
//
//   - AlterFunc is evaluated in a serial pre-pass in roster order. Active
//     attacks are stateful (they record which round/client they poisoned),
//     so their call order must not depend on worker interleaving.
//   - Results land in an index-addressed slice, so aggregation order — and
//     therefore every floating-point sum — matches the serial schedule
//     bit for bit regardless of worker count.
//   - Observers run serially after collection, in roster order.

// trainOutcome is one participant's result, addressed by participant index.
type trainOutcome struct {
	update Update
	err    error
}

// trainWorkers resolves the worker count for n participants: Server.Workers
// when positive, else GOMAXPROCS, clamped to n.
func (s *Server) trainWorkers(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// trainParticipants runs TrainLocal for every participant and returns
// index-addressed outcomes plus the worker count used and the summed
// per-client training time (for the utilization metrics). ClientID is
// filled in on every successful update.
func (s *Server) trainParticipants(round int, participants []Client) ([]trainOutcome, int, time.Duration) {
	// Serial Alter pre-pass (see package comment above).
	params := make([][]float64, len(participants))
	for i, c := range participants {
		params[i] = s.global
		if s.Alter != nil {
			if altered := s.Alter(round, c.ID(), s.global); altered != nil {
				params[i] = altered
			}
		}
	}

	out := make([]trainOutcome, len(participants))
	workers := s.trainWorkers(len(participants))
	var busy atomic.Int64
	trainOne := func(i int) {
		t0 := time.Now()
		u, err := participants[i].TrainLocal(round, params[i])
		busy.Add(int64(time.Since(t0)))
		if err == nil {
			u.ClientID = participants[i].ID()
		}
		out[i] = trainOutcome{update: u, err: err}
	}
	if workers < 2 {
		for i := range participants {
			trainOne(i)
		}
		return out, 1, time.Duration(busy.Load())
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				trainOne(i)
			}
		}()
	}
	for i := range participants {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, workers, time.Duration(busy.Load())
}
