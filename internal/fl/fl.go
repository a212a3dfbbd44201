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
	"time"

	"github.com/cip-fl/cip/internal/fl/robust"
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
	// Policy, when non-nil, enables fault-tolerant rounds: failing or
	// invalid clients are dropped and the round aggregates over the
	// surviving quorum. It also carries the cohort-sampling directive. Nil
	// keeps fail-stop rounds over the whole roster.
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

// failStop is the policy a nil Server.Policy runs under: no quarantine,
// no sampling, no norm bound, plain FedAvg. RunRound never writes it.
var failStop RoundPolicy

// RunRound executes one communication round: split out quarantined
// clients, sample the cohort, train it, then classify every outcome
// serially in roster order — a TrainLocal error is FailTrain, an update
// failing ValidateUpdateBounded is FailInvalid — and fold the valid
// updates into the next global, robustly when a Byzantine-resilient rule
// is attached. Without a Policy the first failure aborts the round with
// an error naming the client, as on a fail-stop TCP coordinator; under a
// RoundPolicy failures are dropped while the quorum holds.
func (s *Server) RunRound(round int) error {
	if len(s.Clients) == 0 {
		return errors.New("fl: server has no clients")
	}
	start := time.Now()
	p := s.Policy
	if p == nil {
		p = &failStop
	}
	eligible, failures := p.splitQuarantined(round, s.Clients)
	participants, _ := SampleCohort(eligible, Client.NumSamples, p.SampleFraction, p.SampleSeed, round, p.quorum())
	outcomes, workers, busy := s.trainParticipants(round, participants)
	defer recycleUpdates(participants, outcomes)
	// Classify outcomes serially in participant order, so the valid and
	// failure lists (and everything downstream: observers, aggregation,
	// reputation) are independent of worker interleaving.
	valid := make([]Update, 0, len(participants))
	hardFailures := 0
	for i, c := range participants {
		u := outcomes[i].update
		f := ClientFailure{ClientID: c.ID(), Round: round, Reason: FailTrain, Err: outcomes[i].err}
		if f.Err == nil {
			if f.Err = ValidateUpdateBounded(u, len(s.global), p.MaxUpdateNorm); f.Err != nil {
				f.Reason = FailInvalid
				s.Metrics.RecordValidationRejection()
				if p.Reputation != nil {
					p.Reputation.ObserveViolation(c.ID())
				}
			}
		}
		if f.Err != nil {
			if s.Policy == nil {
				return fmt.Errorf("fl: round %d: client %d failed (%s): %w", round, f.ClientID, f.Reason, f.Err)
			}
			failures = append(failures, f)
			hardFailures++
			continue
		}
		if bank := p.Compress; bank != nil {
			// Serial, roster-ordered: the error-feedback fold mutates
			// per-client residual state, and determinism at any worker
			// count requires a fixed application order.
			params, wireBytes, err := bank.RoundTrip(c.ID(), s.global, u.Params)
			if err != nil {
				return fmt.Errorf("fl: round %d: %w", round, err)
			}
			u.Params = params
			s.Metrics.RecordCompressedUpdate(wireBytes, 8*len(params))
		}
		valid = append(valid, u)
	}
	if hardFailures > 0 {
		if s.failCounts == nil {
			s.failCounts = make(map[int]int)
		}
		for _, f := range failures {
			// Quarantine exclusions are policy decisions, not client
			// failures; only genuine failures feed the cumulative counts.
			if f.Reason != FailQuarantined {
				s.failCounts[f.ClientID]++
			}
		}
	}
	if cap := p.MaxFailures; cap > 0 && hardFailures > cap {
		return fmt.Errorf("fl: round %d: %d client failures exceed cap %d",
			round, hardFailures, cap)
	}
	if q := p.quorum(); len(valid) < q {
		return fmt.Errorf("fl: round %d: quorum lost: %d valid updates from %d participants, need %d",
			round, len(valid), len(participants), q)
	}
	for _, o := range s.Observers {
		if fo, ok := o.(FailureObserver); ok {
			fo.ObserveFailures(round, failures)
		}
	}
	if err := s.endRound(p, round, start, valid, failures, workers, busy); err != nil {
		return err
	}
	s.round = round + 1
	return nil
}

// endRound is the round's tail under policy p once its valid updates are
// known. Observers see the live pre-round global; the updates fold into the
// next global — through the policy's robust rule, else through the pooled
// mean fold, whose output swaps with the global; reputation scores the
// result, and only then does a robust round hand the global it superseded
// to robust.Recycle, so a steady-state round allocates nothing either way;
// telemetry records the round. Every reader of the updates' Params runs
// before it returns.
func (s *Server) endRound(p *RoundPolicy, round int, start time.Time, updates []Update, failures []ClientFailure,
	workers int, busy time.Duration) error {
	for _, o := range s.Observers {
		o.ObserveRound(round, s.global, updates)
	}
	report := robust.Report{Contributors: len(updates)}
	var superseded []float64
	if p.Robust != nil {
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
	ScoreReputation(p.Reputation, s.global, updates, failures)
	s.Metrics.RecordReputation(p.Reputation)
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
