package fl

import (
	"errors"
	"fmt"
	"maps"
)

// ErrStopped is returned by RunWithOptions (and the transport coordinator)
// when a run is stopped at a round boundary through the Stop channel after
// writing a final snapshot. It signals a clean, resumable shutdown, not a
// failure.
var ErrStopped = errors.New("fl: run stopped at round boundary")

// StatefulClient is an optional Client extension for durable checkpointing:
// a client that can capture — and later restore — every piece of local
// state its future TrainLocal calls depend on beyond the broadcast global
// parameters (optimizer momentum, RNG position, data order, and for CIP
// clients the secret perturbation). The blob is opaque to the engine; it
// only promises that RestoreState(CaptureState()) on an identically
// constructed client resumes the training stream bit-identically.
type StatefulClient interface {
	Client
	CaptureState() ([]byte, error)
	RestoreState([]byte) error
}

// ServerState is everything the in-process engine needs to continue a
// federation deterministically after process death: the next round index,
// the global parameter vector, the cumulative per-client failure counters
// a RoundPolicy accumulates, and each client's captured local state. It
// holds no sampler state: SampleCohort derives every round's cohort from
// (SampleSeed, round), and gob drops the sampler fields an older snapshot
// carries. internal/fl/checkpoint persists it.
type ServerState struct {
	// NextRound is the index of the first round that has not completed.
	NextRound int
	// Global is the aggregated global parameter vector after round
	// NextRound-1.
	Global []float64
	// FailCounts is the cumulative per-client failure count recorded under
	// a RoundPolicy (nil when no failures were recorded).
	FailCounts map[int]int
	// Reputation is the serialized reputation tracker (anomaly scores and
	// quarantine states) when the policy runs one; nil otherwise. Older
	// snapshots without the field decode with it nil — gob tolerates the
	// addition — and restore with a fresh tracker. Persisting it is what
	// keeps a restart from amnestying a quarantined attacker.
	Reputation []byte
	// Compress is the serialized error-feedback bank (per-client
	// compression residuals) when the policy routes updates through the
	// compressed wire path; nil otherwise. Older snapshots without the
	// field decode with it nil — gob tolerates the addition. Persisting
	// it is what keeps a resumed compressed run bit-identical: the
	// residual a round's compression left behind shapes every later
	// round's delta.
	Compress []byte
	// Clients maps client ID to its captured local-state blob.
	Clients map[int][]byte
	// LastCoverage is the most recent round's aggregation-tree coverage
	// (delivered / planned cohort weight; 1 on flat federations). Older
	// snapshots decode with it 0 — gob tolerates the addition — and the
	// value is forensic only: resume logic never branches on it.
	LastCoverage float64
}

// CaptureState snapshots the server at a round boundary. Every client must
// implement StatefulClient; otherwise the federation cannot be resumed
// bit-identically and CaptureState says so instead of writing a snapshot
// that silently would not.
func (s *Server) CaptureState() (*ServerState, error) {
	r, p := s.sync()
	st := &ServerState{NextRound: s.round, Clients: make(map[int][]byte, len(s.Clients))}
	if err := r.Capture(st); err != nil {
		return nil, err
	}
	if p.Compress != nil {
		blob, err := p.Compress.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("fl: capturing compression state: %w", err)
		}
		st.Compress = blob
	}
	for _, c := range s.Clients {
		sc, ok := c.(StatefulClient)
		if !ok {
			return nil, fmt.Errorf("fl: client %d (%T) does not implement StatefulClient", c.ID(), c)
		}
		blob, err := sc.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("fl: capturing client %d state: %w", c.ID(), err)
		}
		st.Clients[c.ID()] = blob
	}
	return st, nil
}

// RestoreState rewinds a freshly constructed server (same roster, same
// seeds, same configuration) to a captured boundary. After RestoreState,
// Run and RunWithOptions continue from st.NextRound.
func (s *Server) RestoreState(st *ServerState) error {
	r, p := s.sync()
	if err := r.Restore(st); err != nil {
		return err
	}
	byID := make(map[int]StatefulClient, len(s.Clients))
	for _, c := range s.Clients {
		if sc, ok := c.(StatefulClient); ok {
			byID[c.ID()] = sc
		}
	}
	for id, blob := range st.Clients {
		sc, ok := byID[id]
		if !ok {
			return fmt.Errorf("fl: snapshot holds state for client %d, which is missing or not stateful", id)
		}
		if err := sc.RestoreState(blob); err != nil {
			return fmt.Errorf("fl: restoring client %d state: %w", id, err)
		}
	}
	if st.Compress != nil && p.Compress != nil {
		if err := p.Compress.Restore(st.Compress); err != nil {
			return fmt.Errorf("fl: restoring compression state: %w", err)
		}
	}
	s.round = st.NextRound
	return nil
}

// Round returns the index of the next round the server will run (equal to
// the number of completed rounds on a fresh or resumed server).
func (s *Server) Round() int { return s.round }

// FailureCounts returns a copy of the cumulative per-client failure
// counters accumulated under a RoundPolicy (nil before any failure).
func (s *Server) FailureCounts() map[int]int { return maps.Clone(s.core.FailCounts) }

// RunOptions configures a durable run: checkpoint cadence, the snapshot
// sink, a graceful-stop channel, and a post-round hook for fault
// injection.
type RunOptions struct {
	// CheckpointEvery writes a snapshot after every N completed rounds
	// (values ≤ 1 mean every round). The final round always snapshots.
	CheckpointEvery int
	// Save persists one captured state durably; internal/fl/checkpoint's
	// Manager.Save is the intended implementation. Nil disables
	// checkpointing (RunWithOptions degenerates to Run).
	Save func(*ServerState) error
	// Stop, when signaled (closed), ends the run at the next round
	// boundary: a final snapshot is written (if Save is set) and
	// RunWithOptions returns ErrStopped.
	Stop <-chan struct{}
	// AfterRound, when non-nil, runs after each completed round and its
	// checkpoint write; returning an error aborts the run immediately —
	// the crash-injection harness (internal/fl/faults.CrashAt) simulates
	// process death through it.
	AfterRound func(round int) error
}

// RunWithOptions executes communication rounds up to totalRounds (an
// absolute round count: a restored server continues from its checkpointed
// round rather than round 0) through RunLoop, writing durable snapshots on
// the configured cadence. A run killed at any point and resumed from its
// last snapshot produces bit-identical results to an uninterrupted run.
func (s *Server) RunWithOptions(totalRounds int, opts RunOptions) error {
	var save func(int) error
	if opts.Save != nil {
		save = func(int) error {
			st, err := s.CaptureState()
			if err != nil {
				return err
			}
			return opts.Save(st)
		}
	}
	return RunLoop(s.round, totalRounds, opts, s.RunRound, save)
}
