package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/rng"
)

// FailureReason classifies why a client's contribution to a round was
// dropped. Transport-level reasons (timeout, connection loss) are produced
// by internal/fl/transport; the in-process engine produces train and
// invalid failures.
type FailureReason string

const (
	// FailTrain means the client's TrainLocal returned an error.
	FailTrain FailureReason = "train"
	// FailInvalid means the update failed validation (NaN/Inf values or a
	// parameter-length mismatch).
	FailInvalid FailureReason = "invalid"
	// FailTimeout means the client missed the round deadline.
	FailTimeout FailureReason = "timeout"
	// FailTransport means the client's connection failed mid-round.
	FailTransport FailureReason = "transport"
	// FailQuarantined means the client is serving a reputation quarantine
	// and was excluded from the round before training or exchange.
	FailQuarantined FailureReason = "quarantined"
)

// ErrQuorumAfterTrim is wrapped by AggregateRobust when a robust rule's
// trimming leaves fewer contributors than MinQuorum. The pre-validation
// quorum check can pass while this fails: n valid updates minus 2·⌊f·n⌋
// trimmed tails may fall under the quorum, and aggregating anyway would
// report a round backed by fewer honest inputs than the policy promises.
var ErrQuorumAfterTrim = errors.New("fl: quorum lost after trim")

// ClientFailure describes one client's failure in one round. Observers that
// implement FailureObserver receive these so attack analyses (and ops
// tooling) know exactly which clients were dropped from each aggregate.
type ClientFailure struct {
	ClientID int
	Round    int
	Reason   FailureReason
	Err      error
}

// RoundPolicy relaxes the engine's fail-stop rounds into quorum-based
// partial aggregation: failing or invalid clients are dropped from the
// round instead of aborting the federation, as long as enough valid
// updates survive. A nil policy on the Server keeps fail-stop rounds: the
// first failing or invalid client, in roster order, aborts the round.
type RoundPolicy struct {
	// MinQuorum is the minimum number of valid updates a round must
	// produce for aggregation to proceed. It is an absolute count checked
	// against the round's participants (the sampled subset when client
	// sampling is enabled), not the full client roster. Values < 1 are
	// treated as 1.
	MinQuorum int
	// SampleFraction, when in (0, 1), trains only a sampled cohort of
	// about that fraction of the eligible roster each round (McMahan et
	// al.'s client-sampling parameter C), drawn by SampleCohort exactly as
	// the TCP coordinator draws it; 0 or ≥ 1 trains everyone. MinQuorum is
	// checked against the cohort, which is never smaller than the quorum.
	SampleFraction float64
	// SampleSeed seeds the cohort draw. Each round's cohort is a pure
	// function of (SampleSeed, round), so sampling keeps no state and a
	// resumed run replays the same schedule.
	SampleSeed int64
	// MaxFailures, when > 0, additionally caps how many per-round client
	// failures are tolerated even if the quorum is still met. 0 means no
	// cap beyond the quorum check.
	MaxFailures int
	// MaxUpdateNorm, when > 0, drops updates whose parameter-vector L2
	// norm exceeds it as FailInvalid. Exploding or poisoned updates can
	// pass the NaN/Inf check with finite but enormous values; a norm bound
	// stops them from dominating the FedAvg aggregate. 0 disables the
	// bound.
	MaxUpdateNorm float64
	// Robust, when non-nil, replaces the sample-weighted FedAvg mean with
	// a Byzantine-resilient rule (coordinate-wise median, trimmed mean,
	// or norm-clipped mean — see internal/fl/robust). Nil keeps plain
	// Aggregate.
	Robust robust.Aggregator
	// Reputation, when non-nil, scores every participant's per-round
	// anomaly evidence (deviation from the robust aggregate, norm-bound
	// hits, validation rejections) and enforces its quarantine decisions:
	// quarantined clients are excluded from rounds before training. The
	// tracker's state rides in ServerState, so checkpoint/resume does not
	// amnesty an attacker.
	Reputation *robust.Reputation
	// Compress, when non-nil, routes every valid update through the
	// compressed wire path in-process: the update becomes a delta against
	// the broadcast global, the client's error-feedback residual is
	// folded in, and the lossy round-tripped reconstruction is what
	// observers and the aggregate actually see — the same information a
	// compressed TCP federation would carry. The bank's residuals ride in
	// ServerState, so checkpoint/resume replays compressed rounds
	// bit-identically. Validation (NaN/Inf, MaxUpdateNorm) runs on the
	// raw pre-compression update.
	Compress *compress.Bank
}

func (p *RoundPolicy) quorum() int {
	if p.MinQuorum < 1 {
		return 1
	}
	return p.MinQuorum
}

// FailureObserver is an optional extension of RoundObserver. Observers
// implementing it are told which clients were dropped each round (possibly
// an empty slice) before ObserveRound delivers the surviving updates.
type FailureObserver interface {
	ObserveFailures(round int, failures []ClientFailure)
}

// ValidateUpdate rejects parameter vectors that would poison or crash the
// aggregate: a length mismatch against the global model, or any NaN/Inf
// entry. Both the in-process engine (under a RoundPolicy) and the TCP
// transport run every update through this check. Sparse/delta updates
// delegate to ValidateSparse, which additionally enforces index
// structure (range, ordering, no duplicates).
func ValidateUpdate(u Update, wantLen int) error {
	if u.Sparse() {
		return ValidateSparse(u, wantLen)
	}
	if len(u.Params) != wantLen {
		return fmt.Errorf("fl: client %d update has %d params, want %d",
			u.ClientID, len(u.Params), wantLen)
	}
	if i := firstNonFinite(u.Params); i >= 0 {
		return fmt.Errorf("fl: client %d update has %s at param %d", u.ClientID, nanOrInf(u.Params[i]), i)
	}
	return nil
}

// expMask selects a float64's exponent bits; a value with all of them set
// is NaN or ±Inf.
const expMask = 0x7ff << 52

// nonFinite reports whether v is NaN or ±Inf, in one integer compare.
func nonFinite(v float64) bool { return math.Float64bits(v)&expMask == expMask }

// firstNonFinite returns the index of the first NaN or ±Inf in v, or -1.
func firstNonFinite(v []float64) int {
	for i, x := range v {
		if nonFinite(x) {
			return i
		}
	}
	return -1
}

// nanOrInf names the kind of a non-finite value for an error message.
func nanOrInf(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return "Inf"
}

// UpdateNorm returns the L2 norm of an update's parameter vector.
func UpdateNorm(u Update) float64 {
	var ss float64
	for _, v := range u.Params {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// ValidateUpdateBounded is ValidateUpdate plus an optional L2 norm bound
// (maxNorm ≤ 0 disables it). Both the in-process engine (through
// RoundPolicy.MaxUpdateNorm) and the TCP transport (through
// Coordinator.MaxUpdateNorm) run updates through this check.
func ValidateUpdateBounded(u Update, wantLen int, maxNorm float64) error {
	if err := ValidateUpdate(u, wantLen); err != nil {
		return err
	}
	if maxNorm > 0 {
		if n := UpdateNorm(u); n > maxNorm {
			return fmt.Errorf("fl: client %d update L2 norm %.4g exceeds bound %.4g",
				u.ClientID, n, maxNorm)
		}
	}
	return nil
}

// AggregateRobust aggregates valid updates under an optional robust rule.
// A nil aggregator keeps the legacy sample-weighted FedAvg mean. With a
// rule attached, the post-trim contributor count is checked against
// minQuorum (values < 1 mean 1) BEFORE aggregating, surfacing
// ErrQuorumAfterTrim — the pre-validation count alone can satisfy the
// quorum while trimming leaves too few real contributors behind.
func AggregateRobust(agg robust.Aggregator, center []float64, updates []Update,
	minQuorum int) ([]float64, robust.Report, error) {
	if agg == nil {
		out, err := Aggregate(updates)
		return out, robust.Report{Contributors: len(updates)}, err
	}
	if len(updates) == 0 {
		return nil, robust.Report{}, errors.New("fl: aggregate of zero updates")
	}
	for _, u := range updates {
		if u.Sparse() {
			return nil, robust.Report{}, fmt.Errorf(
				"fl: robust aggregate: client %d update is sparse/delta; densify before aggregation",
				u.ClientID)
		}
	}
	if minQuorum < 1 {
		minQuorum = 1
	}
	if c := agg.Contributors(len(updates)); c < minQuorum {
		return nil, robust.Report{}, fmt.Errorf(
			"%w: %s keeps %d contributors of %d valid updates, need %d",
			ErrQuorumAfterTrim, agg.Name(), c, len(updates), minQuorum)
	}
	h := headerPool.Get().(*robustHeaders)
	params, weights := h.params[:0], h.weights[:0]
	for _, u := range updates {
		params = append(params, u.Params)
		w := float64(u.NumSamples)
		if w <= 0 {
			w = 1
		}
		weights = append(weights, w)
	}
	out, rep, err := agg.Aggregate(center, params, weights)
	for i := range params {
		params[i] = nil // drop update references before pooling
	}
	h.params, h.weights = params[:0], weights[:0]
	headerPool.Put(h)
	if err != nil {
		return nil, rep, fmt.Errorf("fl: %s aggregation: %w", agg.Name(), err)
	}
	return out, rep, nil
}

// robustHeaders is the pooled params/weights header pair AggregateRobust
// hands a robust rule; pooling it removes the two per-round header
// allocations from the steady state (rules only read the headers, so they
// are safe to recycle as soon as Aggregate returns).
type robustHeaders struct {
	params  [][]float64
	weights []float64
}

var headerPool = sync.Pool{New: func() any { return new(robustHeaders) }}

// splitQuarantined partitions participants into the clients eligible to
// train this round and the ClientFailure records of those excluded by an
// active quarantine. With no reputation tracker everything is eligible.
func (p *RoundPolicy) splitQuarantined(round int, participants []Client) ([]Client, []ClientFailure) {
	if p.Reputation == nil {
		return participants, nil
	}
	eligible := make([]Client, 0, len(participants))
	var excluded []ClientFailure
	for _, c := range participants {
		if p.Reputation.Blocked(c.ID()) {
			excluded = append(excluded, ClientFailure{
				ClientID: c.ID(), Round: round, Reason: FailQuarantined,
				Err: fmt.Errorf("fl: client %d is quarantined", c.ID()),
			})
			continue
		}
		eligible = append(eligible, c)
	}
	return eligible, excluded
}

// ScoreReputation feeds one completed round into a reputation tracker:
// each valid update's distance from the aggregate, then the round-boundary
// EWMA fold and state-machine advance over every participant that was not
// quarantined. Violations (norm and validation rejections) were observed
// when the updates were classified. Both round engines call it; a nil
// tracker does nothing.
func ScoreReputation(rep *robust.Reputation, agg []float64, valid []Update, failures []ClientFailure) {
	if rep == nil {
		return
	}
	ids := make([]int, len(valid))
	params := make([][]float64, len(valid))
	for i, u := range valid {
		ids[i] = u.ClientID
		params[i] = u.Params
	}
	rep.ObserveDeviations(ids, robust.Distances(agg, params))
	roundIDs := ids
	for _, f := range failures {
		if f.Reason != FailQuarantined {
			roundIDs = append(roundIDs, f.ClientID)
		}
	}
	rep.EndRound(roundIDs)
}

// SampleCohort picks one round's cohort from the eligible roster by
// weighted sampling without replacement (Efraimidis–Spirakis: each member
// draws the key u^(1/w), w its weight, and the top n keys win), so members
// holding more data are proportionally likelier to train. n is
// round(frac·len(eligible)), never below floor or 1. The draw is a pure
// function of (seed, round): mixing the round index into the seed
// (SplitMix64's increment) gives every round an independent stream, so
// there is no sampler state to checkpoint and a resumed run replays the
// same schedule. Key ties break toward the earlier roster position.
//
// cohort and idle partition eligible in its own order. With frac outside
// (0, 1), fewer than two members, or a floor that covers everyone, the
// whole roster trains and nothing is allocated. Both round engines call
// it after the quarantine split.
func SampleCohort[T any](eligible []T, weight func(T) int, frac float64, seed int64, round, floor int) (cohort, idle []T) {
	if frac <= 0 || frac >= 1 || len(eligible) < 2 {
		return eligible, nil
	}
	n := max(int(frac*float64(len(eligible))+0.5), floor, 1)
	if n >= len(eligible) {
		return eligible, nil
	}
	r := rand.New(rng.NewSource(int64(uint64(seed) ^ (uint64(round)+1)*0x9E3779B97F4A7C15)))
	type keyed struct {
		key float64
		pos int
	}
	keys := make([]keyed, len(eligible))
	for i, m := range eligible {
		w := float64(weight(m))
		if w <= 0 {
			w = 1
		}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		keys[i] = keyed{key: math.Pow(u, 1/w), pos: i}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return keys[i].key > keys[j].key
		}
		return keys[i].pos < keys[j].pos
	})
	picked := make([]bool, len(eligible))
	for _, k := range keys[:n] {
		picked[k.pos] = true
	}
	cohort = make([]T, 0, n)
	idle = make([]T, 0, len(eligible)-n)
	for i, m := range eligible {
		if picked[i] {
			cohort = append(cohort, m)
		} else {
			idle = append(idle, m)
		}
	}
	return cohort, idle
}
