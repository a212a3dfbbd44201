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
	"runtime"
	"sync/atomic"
	"time"
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
	// a serial pre-pass, and updates are classified, folded and observed
	// serially in cohort order.
	Workers int

	// core holds the global, the failure counts and the round machinery
	// shared with the TCP coordinator.
	core RoundCore
	// round is the next round index to run; Run loops it up to its total,
	// so a server restored from a checkpoint continues where it left off.
	round int
}

// NewServer creates a server with the given initial global parameters.
func NewServer(initial []float64, clients ...Client) *Server {
	s := &Server{Clients: clients}
	s.core.Global = append([]float64(nil), initial...)
	return s
}

// Global returns a copy of the current global parameter vector.
func (s *Server) Global() []float64 {
	return append([]float64(nil), s.core.Global...)
}

// failStop is the policy a nil Server.Policy runs under: no quarantine,
// no sampling, no norm bound, plain FedAvg. RunRound never writes it.
var failStop RoundPolicy

// RunRound executes one communication round through the round core: split
// out quarantined clients, sample the cohort, alter each member's
// broadcast in a serial pre-pass (active attacks are stateful, so their
// call order must not depend on scheduling), train the cohort on up to
// Workers goroutines, and classify every outcome serially in cohort order
// — a TrainLocal error is FailTrain, an update failing
// ValidateUpdateBounded is FailInvalid — folding the valid ones into the
// next global, robustly when a Byzantine-resilient rule is attached.
// Without a Policy the first failure aborts the round with an error
// naming the client, as on a fail-stop TCP coordinator; under a
// RoundPolicy failures are dropped while the quorum holds.
func (s *Server) RunRound(round int) error {
	if len(s.Clients) == 0 {
		return errors.New("fl: server has no clients")
	}
	r, p := s.sync()
	r.Begin(round, 0)
	eligible, _ := SplitQuarantined(r, s.Clients, Client.ID)
	cohort, _ := SampleCohort(eligible, Client.NumSamples, p.SampleFraction, p.SampleSeed, round, p.quorum())
	params := make([][]float64, len(cohort))
	for i, c := range cohort {
		params[i] = r.Global
		if s.Alter != nil {
			if altered := s.Alter(round, c.ID(), r.Global); altered != nil {
				params[i] = altered
			}
		}
	}
	trained := make([]Update, len(cohort))
	defer recycleUpdates(cohort, trained)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cohort))
	var busy atomic.Int64
	_, err := RunWindow(len(cohort), Window{Workers: workers, Size: len(cohort)}, func(pos int) error {
		t0 := time.Now()
		u, err := cohort[pos].TrainLocal(round, params[pos])
		busy.Add(int64(time.Since(t0)))
		if err == nil {
			u.ClientID = cohort[pos].ID()
			trained[pos] = u
		}
		return err
	}, func(pos int, err error) error {
		return s.take(p, round, cohort[pos], trained[pos], err)
	})
	if err != nil {
		return fmt.Errorf("fl: round %d: %w", round, err)
	}
	if _, err := r.Check(len(cohort), p.quorum(), p.MaxFailures, false); err != nil {
		return err
	}
	r.Observe()
	agg, rep, err := r.Aggregate(p.quorum())
	if err != nil {
		return fmt.Errorf("fl: round %d: %w", round, err)
	}
	r.Advance(agg)
	r.End(rep)
	s.Metrics.RecordWorkerPool(workers, time.Duration(busy.Load()), time.Since(r.start))
	s.round = round + 1
	return nil
}

// sync points the core at the server's current configuration and returns
// it with the policy rounds run under: Policy, or failStop when nil.
func (s *Server) sync() (*RoundCore, *RoundPolicy) {
	p := s.Policy
	if p == nil {
		p = &failStop
	}
	s.core.Observers, s.core.Reputation, s.core.Metrics = s.Observers, p.Reputation, s.Metrics
	s.core.SetRule(p.Robust)
	return &s.core, p
}

// take classifies one cohort member's training outcome, in cohort order:
// a failure aborts a fail-stop round and is recorded under a policy; a
// valid update takes the compressed wire path's lossy round trip when the
// policy has one — serially, because its error feedback mutates
// per-client residuals — and folds.
func (s *Server) take(p *RoundPolicy, round int, c Client, u Update, err error) error {
	reason := FailTrain
	if err == nil {
		if err = ValidateUpdateBounded(u, len(s.core.Global), p.MaxUpdateNorm); err != nil {
			reason = FailInvalid
		}
	}
	if err != nil {
		if s.Policy == nil {
			return fmt.Errorf("client %d failed (%s): %w", c.ID(), reason, err)
		}
		s.core.Fail(ClientFailure{ClientID: c.ID(), Round: round, Reason: reason, Err: err})
		return nil
	}
	if bank := p.Compress; bank != nil {
		params, wireBytes, err := bank.RoundTrip(c.ID(), s.core.Global, u.Params)
		if err != nil {
			return err
		}
		u.Params = params
		s.Metrics.RecordCompressedUpdate(wireBytes, 8*len(params))
	}
	_, err = s.core.Fold(u)
	return err
}

// recycleUpdates gives every cohort member that is an UpdateRecycler its
// own trained Params back; RunRound defers it past the round's last
// reader.
func recycleUpdates(cohort []Client, trained []Update) {
	for i, c := range cohort {
		if r, ok := c.(UpdateRecycler); ok && trained[i].Params != nil {
			recycleHook(trained[i].Params)
			r.RecycleUpdate(trained[i].Params)
		}
	}
}

// Run executes communication rounds until the server has completed rounds
// of them in total. A freshly constructed server runs rounds 0..rounds-1;
// a server restored from a checkpoint continues from its restored round.
func (s *Server) Run(rounds int) error { return s.RunWithOptions(rounds, RunOptions{}) }

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
