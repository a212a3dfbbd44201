// Package fl implements the federated-learning substrate the paper trains
// on: FedAvg clients and server, communication rounds, and the
// malicious-server observation and alteration hooks that the internal
// membership inference attacks of Nasr et al. (S&P'19) require.
//
// The design keeps attack logic out of the engine: a malicious server is
// modeled as (a) a RoundObserver that receives every client's local update
// each round (the passive attack's vantage point) and (b) an AlterFunc that
// may rewrite the model a victim client receives (the active attack's
// gradient-ascent injection point).
package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/rng"
)

// Update is what a client returns from one round of local training.
//
// The canonical shape is dense: Params holds the full post-training
// parameter vector and Indices/DenseLen/IsDelta are zero. The binary wire
// path additionally produces compressed shapes — sparse (Indices non-nil:
// Params holds only the coordinates named by Indices) and/or delta
// (IsDelta: values are offsets from the round's broadcast global rather
// than raw parameters). Compressed updates exist only between decode and
// Densify; Aggregate and the robust folds accept dense raw updates
// exclusively and reject anything else with an explicit error.
type Update struct {
	// ClientID identifies the producing client (filled in by the server).
	ClientID int
	// Params is the client's post-training flat parameter vector — or,
	// for a sparse update, the values of the coordinates in Indices. The
	// round only reads it, and only until the round ends: the in-process
	// Server then hands it back to an UpdateRecycler client.
	Params []float64
	// NumSamples weights this client in the FedAvg aggregate.
	NumSamples int
	// TrainLoss is the client's mean local training loss this round;
	// Fig. 7's EMD heterogeneity measure is computed over these.
	TrainLoss float64
	// Indices, when non-nil, marks the update sparse: Params[j] is the
	// value at dense coordinate Indices[j]. Indices must be strictly
	// ascending and in [0, DenseLen).
	Indices []int
	// DenseLen is the dense vector length a sparse update expands to.
	DenseLen int
	// IsDelta marks Params as offsets from the broadcast global
	// parameters instead of raw post-training values.
	IsDelta bool
}

// Sparse reports whether the update is in a compressed (sparse or delta)
// shape that must be densified before aggregation.
func (u Update) Sparse() bool { return u.Indices != nil || u.IsDelta }

// Client is one federated-learning participant.
type Client interface {
	// ID returns the client's stable index.
	ID() int
	// NumSamples returns the local training-set size.
	NumSamples() int
	// TrainLocal loads the global parameters, runs the client's local
	// training for the round, and returns the resulting update. global is
	// valid only until TrainLocal returns and must not be written: over
	// the wire it is the session's receive buffer, overwritten by the next
	// round's broadcast (the returned Update may alias it — it is sent
	// first), and in process every client of the round shares it. A client
	// that needs the values later copies them (core.Client does, through
	// nn.SetFlatParams).
	TrainLocal(round int, global []float64) (Update, error)
}

// UpdateRecycler is an optional Client extension. The in-process Server
// calls RecycleUpdate with the Params of the client's own update once the
// round's last reader (fold, observers, reputation, compress bank) is done,
// and the client may build a later update in it. A client hands each
// recycled vector out once and otherwise allocates, so an update nobody
// recycles stays its caller's. Wrappers embedding Client do not implement
// it.
type UpdateRecycler interface {
	RecycleUpdate(params []float64)
}

// RoundObserver receives the state a (potentially malicious) server can see
// every round: the pre-round global parameters and each client's update.
// Both are live engine vectors, read-only and valid until ObserveRound
// returns; an observer that keeps either copies it, as HistoryRecorder does.
type RoundObserver interface {
	ObserveRound(round int, global []float64, updates []Update)
}

// AlterFunc lets a malicious server rewrite the parameters sent to one
// client. Returning nil keeps the genuine global parameters. global is the
// server's live vector: read-only, valid until AlterFunc returns.
type AlterFunc func(round int, clientID int, global []float64) []float64

// Server coordinates FedAvg over a set of clients.
type Server struct {
	Clients   []Client
	Observers []RoundObserver
	// Alter, when non-nil, may substitute the parameters each client
	// receives (malicious-server active attacks).
	Alter AlterFunc
	// SampleFraction, when in (0, 1), trains only that fraction of clients
	// per round (McMahan et al.'s client-sampling parameter C); 0 or ≥1
	// trains everyone. SampleRng drives the selection (nil seeds from 0).
	SampleFraction float64
	SampleRng      *rand.Rand
	// SamplerSrc, when set (and SampleRng is nil), drives client sampling
	// through a serializable source so CaptureState can checkpoint the
	// sampler's exact position (required for durable runs that sample).
	SamplerSrc *rng.Source
	// Policy, when non-nil, enables fault-tolerant rounds: failing or
	// invalid clients are dropped and the round aggregates over the
	// surviving quorum. Nil keeps fail-stop semantics.
	Policy *RoundPolicy
	// Metrics, when non-nil, receives per-round telemetry (round
	// duration, participating/dropped clients, validation rejections).
	Metrics *Metrics
	// Workers bounds how many clients train concurrently within one round
	// (each client owns its model, optimizer, and RNG, so local training is
	// an independent map over participants). 0 means GOMAXPROCS. Results
	// are bit-identical for every worker count: parameters are altered in
	// a serial pre-pass, updates land in an index-addressed slice, and
	// observers and aggregation run serially in roster order.
	Workers int

	global []float64
	// fold and spare are the pooled aggregation state: the fold's
	// accumulator and the output buffer FinalizeInto fills, swapped with
	// global each round so steady-state aggregation allocates nothing.
	// Safe because TrainLocal, AlterFunc and observers may read the
	// global only until they return, so nothing retains the swapped
	// buffers.
	fold  *Fold
	spare []float64
	// round is the next round index to run; Run loops it up to its total,
	// so a server restored from a checkpoint continues where it left off.
	round int
	// failCounts accumulates per-client failures across rounds under a
	// RoundPolicy; it is part of the durable state (ServerState).
	failCounts map[int]int
}

// NewServer creates a server with the given initial global parameters.
func NewServer(initial []float64, clients ...Client) *Server {
	g := make([]float64, len(initial))
	copy(g, initial)
	return &Server{Clients: clients, global: g}
}

// Global returns a copy of the current global parameter vector.
func (s *Server) Global() []float64 {
	out := make([]float64, len(s.global))
	copy(out, s.global)
	return out
}

// RunRound executes one communication round: broadcast, local training on
// the (possibly sampled) clients, then weighted FedAvg aggregation.
func (s *Server) RunRound(round int) error {
	if len(s.Clients) == 0 {
		return errors.New("fl: server has no clients")
	}
	start := time.Now()
	participants := s.sampleClients()
	if s.Policy != nil {
		if err := s.runRoundQuorum(round, start, participants); err != nil {
			return err
		}
		s.round = round + 1
		return nil
	}
	outcomes, workers, busy := s.trainParticipants(round, participants)
	defer recycleUpdates(participants, outcomes)
	updates := make([]Update, len(participants))
	for i, c := range participants {
		if err := outcomes[i].err; err != nil {
			return fmt.Errorf("fl: client %d round %d: %w", c.ID(), round, err)
		}
		u := outcomes[i].update
		if len(u.Params) != len(s.global) {
			return fmt.Errorf("fl: client %d returned %d params, want %d",
				c.ID(), len(u.Params), len(s.global))
		}
		updates[i] = u
	}
	if err := s.endRound(round, start, updates, nil, workers, busy); err != nil {
		return err
	}
	s.round = round + 1
	return nil
}

// endRound is the tail both round paths share once the round's updates are
// known. Observers see the live pre-round global; the updates fold into the
// next global — through the policy's robust rule, else through the pooled
// mean fold, whose output swaps with the global; reputation scores the
// result, and only then does a robust round hand the global it superseded
// to robust.Recycle, so a steady-state round allocates nothing either way;
// telemetry records the round. Every reader of the updates' Params runs
// before it returns.
func (s *Server) endRound(round int, start time.Time, updates []Update, failures []ClientFailure,
	workers int, busy time.Duration) error {
	for _, o := range s.Observers {
		o.ObserveRound(round, s.global, updates)
	}
	report := robust.Report{Contributors: len(updates)}
	var superseded []float64
	if p := s.Policy; p != nil && p.Robust != nil {
		agg, rep, err := AggregateRobust(p.Robust, s.global, updates, p.quorum())
		if err != nil {
			return fmt.Errorf("fl: round %d: %w", round, err)
		}
		superseded, s.global, report = s.global, agg, rep
	} else {
		if s.fold == nil || cap(s.spare) < len(s.global) {
			s.fold = NewFold(len(s.global))
			s.spare = make([]float64, len(s.global))
		} else {
			s.fold.Reset(len(s.global))
			s.spare = s.spare[:len(s.global)]
		}
		for _, u := range updates {
			if err := s.fold.Fold(u); err != nil {
				return fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		if err := s.fold.FinalizeInto(s.spare); err != nil {
			return fmt.Errorf("fl: round %d: %w", round, err)
		}
		s.global, s.spare = s.spare, s.global
	}
	if p := s.Policy; p != nil {
		p.scoreRound(s.global, updates, failures)
		s.Metrics.RecordReputation(p.Reputation)
	}
	if superseded != nil {
		recycleHook(superseded)
		robust.Recycle(superseded)
	}
	s.Metrics.RecordRound(start, len(updates), len(failures), len(s.global))
	s.Metrics.RecordRobust(report)
	s.Metrics.RecordWorkerPool(workers, busy, time.Since(start))
	return nil
}

// recycleUpdates gives every participant that is an UpdateRecycler its own
// returned Params back; the caller runs it once the round has no reader
// left.
func recycleUpdates(participants []Client, outcomes []trainOutcome) {
	for i, c := range participants {
		if r, ok := c.(UpdateRecycler); ok && outcomes[i].err == nil {
			recycleHook(outcomes[i].update.Params)
			r.RecycleUpdate(outcomes[i].update.Params)
		}
	}
}

// recycleHook sees every vector at its release; tests replace it.
var recycleHook = func([]float64) {}

// sampleClients returns this round's participants in stable ID order. The
// Server-level SampleFraction wins; when unset, the RoundPolicy's knob
// (the flag-wired spelling) applies.
func (s *Server) sampleClients() []Client {
	f := s.SampleFraction
	if f <= 0 && s.Policy != nil {
		f = s.Policy.SampleFraction
	}
	if f <= 0 || f >= 1 || len(s.Clients) < 2 {
		return s.Clients
	}
	n := int(f*float64(len(s.Clients)) + 0.5)
	if n < 1 {
		n = 1
	}
	if s.SampleRng == nil {
		if s.SamplerSrc != nil {
			s.SampleRng = rand.New(s.SamplerSrc)
		} else {
			s.SampleRng = rand.New(rand.NewSource(0))
		}
	}
	perm := s.SampleRng.Perm(len(s.Clients))[:n]
	// Keep deterministic ordering so observers can index stably.
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	out := make([]Client, n)
	for i, idx := range perm {
		out[i] = s.Clients[idx]
	}
	return out
}

// Run executes communication rounds until the server has completed rounds
// of them in total. A freshly constructed server runs rounds 0..rounds-1;
// a server restored from a checkpoint continues from its restored round.
func (s *Server) Run(rounds int) error {
	for s.round < rounds {
		if err := s.RunRound(s.round); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate computes the sample-weighted FedAvg mean of the updates. All
// update vectors must share one length; a mismatch is reported as an error
// instead of panicking, so one misbehaving client cannot crash the
// aggregator. It is the batch form of Fold: updates fold in slice order,
// so the result is bit-identical to a streaming fold over the same order.
func Aggregate(updates []Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, errZeroFold
	}
	f := NewFold(len(updates[0].Params))
	for _, u := range updates {
		if err := f.Fold(u); err != nil {
			return nil, err
		}
	}
	out, _, err := f.Finalize()
	return out, err
}
