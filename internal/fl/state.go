package fl

import (
	"errors"
	"fmt"
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
	st := &ServerState{
		NextRound: s.round,
		Global:    s.Global(),
		Clients:   make(map[int][]byte, len(s.Clients)),
	}
	if len(s.failCounts) > 0 {
		st.FailCounts = make(map[int]int, len(s.failCounts))
		for id, n := range s.failCounts {
			st.FailCounts[id] = n
		}
	}
	if s.Policy != nil && s.Policy.Reputation != nil {
		blob, err := s.Policy.Reputation.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("fl: capturing reputation state: %w", err)
		}
		st.Reputation = blob
	}
	if s.Policy != nil && s.Policy.Compress != nil {
		blob, err := s.Policy.Compress.Snapshot()
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
	if len(st.Global) != len(s.global) {
		return fmt.Errorf("fl: restoring %d global params onto a model with %d", len(st.Global), len(s.global))
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
	if st.Reputation != nil && s.Policy != nil && s.Policy.Reputation != nil {
		if err := s.Policy.Reputation.Restore(st.Reputation); err != nil {
			return fmt.Errorf("fl: restoring reputation state: %w", err)
		}
	}
	if st.Compress != nil && s.Policy != nil && s.Policy.Compress != nil {
		if err := s.Policy.Compress.Restore(st.Compress); err != nil {
			return fmt.Errorf("fl: restoring compression state: %w", err)
		}
	}
	copy(s.global, st.Global)
	s.round = st.NextRound
	if st.FailCounts != nil {
		s.failCounts = make(map[int]int, len(st.FailCounts))
		for id, n := range st.FailCounts {
			s.failCounts[id] = n
		}
	} else {
		s.failCounts = nil
	}
	return nil
}

// Round returns the index of the next round the server will run (equal to
// the number of completed rounds on a fresh or resumed server).
func (s *Server) Round() int { return s.round }

// FailureCounts returns a copy of the cumulative per-client failure
// counters accumulated under a RoundPolicy.
func (s *Server) FailureCounts() map[int]int {
	out := make(map[int]int, len(s.failCounts))
	for id, n := range s.failCounts {
		out[id] = n
	}
	return out
}

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
// round rather than round 0), writing durable snapshots on the configured
// cadence. A run killed at any point and resumed from its last snapshot
// produces bit-identical results to an uninterrupted run.
func (s *Server) RunWithOptions(totalRounds int, opts RunOptions) error {
	every := opts.CheckpointEvery
	if every < 1 {
		every = 1
	}
	checkpoint := func() error {
		st, err := s.CaptureState()
		if err != nil {
			return err
		}
		return opts.Save(st)
	}
	for s.round < totalRounds {
		r := s.round
		if err := s.RunRound(r); err != nil {
			return err
		}
		wrote := false
		if opts.Save != nil && ((r+1)%every == 0 || r == totalRounds-1) {
			if err := checkpoint(); err != nil {
				return fmt.Errorf("fl: checkpoint after round %d: %w", r, err)
			}
			wrote = true
		}
		if opts.AfterRound != nil {
			if err := opts.AfterRound(r); err != nil {
				return err
			}
		}
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				if opts.Save != nil && !wrote {
					if err := checkpoint(); err != nil {
						return fmt.Errorf("fl: final checkpoint after round %d: %w", r, err)
					}
				}
				return ErrStopped
			default:
			}
		}
	}
	return nil
}
