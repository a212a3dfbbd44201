package fl

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"time"

	"github.com/cip-fl/cip/internal/fl/robust"
)

// The round core both engines drive — the in-process Server and the TCP
// coordinator (internal/fl/transport); DESIGN.md §7 describes it. RunWindow
// fans a cohort's exchanges out and hands the results back in cohort
// order, a RoundCore folds them in that order and runs the round's tail,
// and RunLoop is the durable loop around the rounds. Folding in cohort
// order, whatever the arrival order, keeps every sum the serial one.

// Window bounds one round's exchanges: Workers goroutines claim cohort
// positions, and position pos is admitted only while pos < base+Size,
// base being the number of results taken. Abort (optional) runs once when
// a take fails; Inflight (optional) is told the admitted, untaken count
// as it changes — outside the window's lock, so two reports may arrive
// out of order — and 0 at the end.
type Window struct {
	Workers, Size int
	Abort         func()
	Inflight      func(n int)
}

// RunWindow runs exchange for every cohort position 0..n-1 through the
// window and calls take on the calling goroutine with each result in
// position order. The first take error closes the gate — nothing is
// admitted after it — runs w.Abort, waits for the exchanges in flight and
// is returned. peak is the most positions ever admitted at once. take
// waits only on position base, which always passes the gate, so the
// window cannot deadlock.
func RunWindow[R any](n int, w Window, exchange func(pos int) R, take func(pos int, r R) error) (peak int, err error) {
	size := min(max(w.Size, 1), n)
	g := &window[R]{ring: make([]windowSlot[R], size), size: size, n: n, inflight: w.Inflight}
	g.cond.L = &g.mu
	workers := min(max(w.Workers, 1), size)
	g.wg.Add(workers)
	for range workers {
		go g.work(exchange)
	}
	for pos := range n {
		g.mu.Lock()
		for !g.ring[pos%size].done {
			g.cond.Wait()
		}
		r := g.ring[pos%size].r
		g.ring[pos%size] = windowSlot[R]{}
		g.mu.Unlock()
		if err = take(pos, r); err != nil {
			g.mu.Lock()
			g.aborted = true
			g.cond.Broadcast()
			g.mu.Unlock()
			if w.Abort != nil {
				w.Abort()
			}
			break
		}
		g.mu.Lock()
		g.base++
		live := g.admit(-1)
		g.mu.Unlock()
		g.report(live)
	}
	g.wg.Wait()
	g.report(0)
	return g.peak, err
}

// window is one RunWindow call's state, guarded by mu.
type window[R any] struct {
	mu       sync.Mutex
	cond     sync.Cond
	wg       sync.WaitGroup
	ring     []windowSlot[R]
	size, n  int
	base     int // results taken
	next     int // next position to admit
	live     int // admitted, not yet taken
	peak     int
	aborted  bool
	inflight func(int)
}

// windowSlot holds position pos's result at ring[pos%size]; the gate keeps
// live positions within [base, base+size), so slots never collide.
type windowSlot[R any] struct {
	r    R
	done bool
}

// admit moves the live count by d, wakes the gate and returns the count;
// mu is held.
func (g *window[R]) admit(d int) int {
	g.live += d
	g.peak = max(g.peak, g.live)
	g.cond.Broadcast()
	return g.live
}

// report passes a live count to Inflight; mu is not held.
func (g *window[R]) report(live int) {
	if g.inflight != nil {
		g.inflight(live)
	}
}

// work claims and exchanges positions until none is left or the window
// aborts.
func (g *window[R]) work(exchange func(pos int) R) {
	defer g.wg.Done()
	for {
		g.mu.Lock()
		for g.next < g.n && g.next >= g.base+g.size && !g.aborted {
			g.cond.Wait()
		}
		if g.aborted || g.next >= g.n {
			g.mu.Unlock()
			return
		}
		pos := g.next
		g.next++
		live := g.admit(1)
		g.mu.Unlock()
		g.report(live)
		r := exchange(pos)
		g.mu.Lock()
		g.ring[pos%g.size] = windowSlot[R]{r: r, done: true}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// RoundCore is one engine's round state. A round takes these steps, in
// order: Begin; SplitQuarantined; Fold, FoldPartial or Fail for each
// exchange result in cohort order; Check; then the tail — Observe,
// Aggregate (or a leaf's partial), Advance, End. Global is the live
// global, read-only until Advance replaces it; FailCounts the cumulative
// per-client failure counts.
//
// The core owns the round's rows and its one finisher. The weighted mean
// and the rules with a stream form fold each contribution as it is taken;
// a rule that reads rows runs once at the tail over the round's row
// reservoir (robust.Sketch). A flat node's reservoir holds every row, so
// the sort-based rules, which do not depend on row order, see exactly the
// round's updates; a tree node's holds the K client rows with the smallest
// keys, K the root's directive, and a leaf ships it in its partial.
type RoundCore struct {
	Global     []float64
	FailCounts map[int]int
	Observers  []RoundObserver
	Reputation *robust.Reputation
	Metrics    *Metrics

	rule robust.Aggregator
	// fold is the weighted mean (nil rule) and stream a robust rule's
	// stream form; both are reused across rounds, and at most one is set.
	fold   *Fold
	stream robust.Stream
	rows   robust.Sketch // the round's reservoir; Cap 0 when it keeps none
	keep   bool          // the round keeps its update column for the tail

	round    int
	start    time.Time
	column   []Update
	failures []ClientFailure
	valid    int
	failed   int
}

// allRows is a flat node's reservoir capacity: every row of the round.
const allRows = math.MaxInt

// SetRule fixes how rounds aggregate under rule (nil: the weighted mean).
// A rule equal to the one in force keeps its fold or stream and their
// buffers.
func (r *RoundCore) SetRule(rule robust.Aggregator) {
	if (r.fold != nil || r.rule != nil) && sameRule(r.rule, rule) {
		return
	}
	r.rule, r.fold, r.stream = rule, nil, nil
	switch sr := rule.(type) {
	case nil:
		r.fold = new(Fold)
	case robust.StreamRule:
		r.stream = sr.NewStream()
	}
}

// sameRule reports whether a and b are one rule: nil both, or equal
// values. A value that cannot be compared counts as a new rule.
func sameRule(a, b robust.Aggregator) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.ValueOf(a).Comparable() && a == b
}

// Begin opens round round over the current Global with a reservoir of
// rowCap rows: a tree node's capacity from the root's directive, 0 for
// none. A flat node (rowCap 0) whose rule has no stream form keeps every
// row. The round keeps its update column — O(cohort) memory — only for
// observers and a reputation tracker, which read every update at the tail.
func (r *RoundCore) Begin(round, rowCap int) {
	r.round, r.start = round, time.Now()
	r.failures, r.valid, r.failed = nil, 0, 0
	r.keep = len(r.Observers) > 0 || r.Reputation != nil
	if rowCap <= 0 && r.fold == nil && r.stream == nil {
		rowCap = allRows
	}
	r.rows.Reset(max(rowCap, 0))
	if r.fold != nil {
		r.fold.Reset(len(r.Global))
	}
	if r.stream != nil {
		r.stream.Reset(r.Global)
	}
}

// Keeps reports whether the round holds every accepted update until its
// tail: in its column, or in a reservoir with room for all of them.
func (r *RoundCore) Keeps() bool { return r.keep || r.rows.Cap == allRows }

// MeanFold is the weighted-mean fold, nil under any other rule.
func (r *RoundCore) MeanFold() *Fold { return r.fold }

// Reservoir is the round's row reservoir, nil when it keeps no rows. Its
// rows stay until the next Begin.
func (r *RoundCore) Reservoir() *robust.Sketch {
	if r.rows.Cap == 0 {
		return nil
	}
	return &r.rows
}

// SplitQuarantined partitions roster into the members eligible for the
// core's round and those serving a quarantine under its reputation
// tracker, recording each of the latter as a FailQuarantined failure.
// With no tracker everything is eligible and nothing is allocated.
func SplitQuarantined[T any](r *RoundCore, roster []T, id func(T) int) (eligible, blocked []T) {
	if r.Reputation == nil {
		return roster, nil
	}
	eligible = make([]T, 0, len(roster))
	for _, m := range roster {
		if r.Reputation.Blocked(id(m)) {
			blocked = append(blocked, m)
			r.failures = append(r.failures, ClientFailure{
				ClientID: id(m), Round: r.round, Reason: FailQuarantined,
				Err: fmt.Errorf("fl: client %d is quarantined", id(m)),
			})
			continue
		}
		eligible = append(eligible, m)
	}
	return eligible, blocked
}

// Fold folds one valid update: into the weighted mean or the rule's
// stream, and, when the round keeps rows, into the reservoir under its
// client key. It returns the vector no store of the round holds —
// u.Params, a row the reservoir let go, or nil — for the engine to reuse;
// while the round keeps its column, that still reads u.Params until End.
func (r *RoundCore) Fold(u Update) (free []float64, err error) {
	switch {
	case u.Sparse():
		err = fmt.Errorf("fl: aggregate: client %d update is sparse/delta; densify before aggregation", u.ClientID)
	case r.fold != nil:
		err = r.fold.Fold(u)
	case r.stream != nil:
		err = r.stream.Fold(u.Params)
	}
	if err != nil {
		return nil, err
	}
	r.valid++
	if r.keep {
		r.column = append(r.column, u)
	}
	if r.rows.Cap == 0 {
		return u.Params, nil
	}
	return r.rows.Insert(robust.KeyClient(u.ClientID), u.Params), nil
}

// FoldPartial folds one child aggregator's validated partial: its rows
// into the reservoir — its sketch merged, or its implied mean Sum/Weight
// as one leaf-keyed row — and its sums into the weighted mean. The sums
// are never stored, so the caller reuses them at once.
func (r *RoundCore) FoldPartial(p Partial) error {
	switch {
	case r.rows.Cap > 0 && p.Sketch != nil:
		if err := r.rows.Merge(p.Sketch); err != nil {
			return err
		}
	case r.rows.Cap > 0:
		row := make([]float64, len(p.Sum))
		for i, v := range p.Sum {
			row[i] = v / p.Weight
		}
		r.rows.Insert(robust.KeyLeaf(p.LeafID), row)
	case r.fold == nil:
		return fmt.Errorf("fl: %s cannot fold leaf partials without row sketches", r.rule.Name())
	}
	if r.fold != nil {
		if err := r.fold.FoldPartial(p); err != nil {
			return err
		}
	}
	r.valid++
	return nil
}

// Fail records one member's failed contribution and counts it against
// the member's cumulative failures; an invalid update is also a
// validation rejection and reputation evidence.
func (r *RoundCore) Fail(f ClientFailure) {
	if f.Reason == FailInvalid {
		r.Metrics.RecordValidationRejection()
		if r.Reputation != nil {
			r.Reputation.ObserveViolation(f.ClientID)
		}
	}
	r.failures = append(r.failures, f)
	r.failed++
	if r.FailCounts == nil {
		r.FailCounts = make(map[int]int)
	}
	r.FailCounts[f.ClientID]++
}

// Check ends the round's classification: more than maxFailures failures
// (when > 0), or fewer than quorum valid contributions from participants,
// fail the round — except that a tree node (degrade) still holding one
// valid contribution forwards it, reported degraded.
func (r *RoundCore) Check(participants, quorum, maxFailures int, degrade bool) (degraded bool, err error) {
	if maxFailures > 0 && r.failed > maxFailures {
		return false, fmt.Errorf("fl: round %d: %d client failures exceed cap %d", r.round, r.failed, maxFailures)
	}
	if r.valid >= quorum {
		return false, nil
	}
	if degrade && r.valid >= 1 {
		return true, nil
	}
	return false, fmt.Errorf("fl: round %d: quorum lost: %d valid updates from %d participants, need %d",
		r.round, r.valid, participants, quorum)
}

// Observe shows the round to its observers: failure observers the
// failures first, then every observer the pre-round global and the kept
// column.
func (r *RoundCore) Observe() {
	for _, o := range r.Observers {
		if fo, ok := o.(FailureObserver); ok {
			fo.ObserveFailures(r.round, r.failures)
		}
	}
	for _, o := range r.Observers {
		o.ObserveRound(r.round, r.Global, r.column)
	}
}

// Aggregate finalizes the round: the weighted mean or the rule's stream,
// or — when the round keeps rows for a robust rule — the rule run once
// over the reservoir's rows. Rules ignore the claimed sample weights, so
// none are passed. On a flat node, whose reservoir holds every row, the
// rule's post-trim contributor count is first checked against minQuorum;
// a tree root's quorum counted child aggregators in Check, each of which
// met its own.
func (r *RoundCore) Aggregate(minQuorum int) ([]float64, robust.Report, error) {
	if r.rule == nil {
		return r.fold.Finalize()
	}
	var out []float64
	var rep robust.Report
	var err error
	if rows := r.rows.RowsView(); r.rows.Cap == 0 {
		out, rep, err = r.stream.Finalize()
	} else if c := r.rule.Contributors(len(rows)); r.rows.Cap == allRows && c < minQuorum {
		return nil, rep, fmt.Errorf("%w: %s keeps %d contributors of %d valid updates, need %d",
			ErrQuorumAfterTrim, r.rule.Name(), c, len(rows), minQuorum)
	} else {
		out, rep, err = r.rule.Aggregate(r.Global, rows, nil)
	}
	if err != nil {
		return nil, rep, fmt.Errorf("fl: %s aggregation: %w", r.rule.Name(), err)
	}
	return out, rep, nil
}

// Score feeds the round to the reputation tracker, if any: each kept
// update's distance from center — the aggregate, or a leaf's leaf-local
// mean — then the round-boundary EWMA fold and state-machine advance over
// every member that was not quarantined. Violations were observed by
// Fail.
func (r *RoundCore) Score(center []float64) {
	if r.Reputation == nil {
		return
	}
	ids := make([]int, len(r.column))
	params := make([][]float64, len(r.column))
	for i, u := range r.column {
		ids[i], params[i] = u.ClientID, u.Params
	}
	r.Reputation.ObserveDeviations(ids, robust.Distances(center, params))
	for _, f := range r.failures {
		if f.Reason != FailQuarantined {
			ids = append(ids, f.ClientID)
		}
	}
	r.Reputation.EndRound(ids)
}

// Advance scores the round against agg and makes agg the global. The
// global it supersedes is read by nobody any more: under the mean fold it
// accumulates next (Fold.Recycle ping-pong); any other rule's output came
// from robust.Recycle's list, so it goes back there.
func (r *RoundCore) Advance(agg []float64) {
	r.Score(agg)
	recycleHook(r.Global)
	if r.fold != nil {
		r.fold.Recycle(r.Global)
	} else {
		robust.Recycle(r.Global)
	}
	r.Global = agg
}

// End closes the round: it records the round's telemetry and drops the
// kept column, whose vectors the engine may then reuse.
func (r *RoundCore) End(rep robust.Report) {
	r.Metrics.RecordRound(r.start, r.valid, len(r.failures), len(r.Global), rep)
	r.Metrics.RecordReputation(r.Reputation)
	clear(r.column)
	r.column = r.column[:0]
}

// Capture copies the core's durable state into st: the global, the
// failure counts and the reputation tracker.
func (r *RoundCore) Capture(st *ServerState) error {
	st.Global = append([]float64(nil), r.Global...)
	if len(r.FailCounts) > 0 {
		st.FailCounts = maps.Clone(r.FailCounts)
	}
	if r.Reputation != nil {
		blob, err := r.Reputation.Snapshot()
		if err != nil {
			return fmt.Errorf("fl: capturing reputation state: %w", err)
		}
		st.Reputation = blob
	}
	return nil
}

// Restore rewinds the core's durable state to a captured st.
func (r *RoundCore) Restore(st *ServerState) error {
	if len(st.Global) != len(r.Global) {
		return fmt.Errorf("fl: restoring %d global params onto a model with %d", len(st.Global), len(r.Global))
	}
	if st.Reputation != nil && r.Reputation != nil {
		if err := r.Reputation.Restore(st.Reputation); err != nil {
			return fmt.Errorf("fl: restoring reputation state: %w", err)
		}
	}
	copy(r.Global, st.Global)
	r.FailCounts = maps.Clone(st.FailCounts)
	return nil
}

// recycleHook sees every vector the in-process engine releases — a
// superseded global, a client's update handed back; tests replace it.
var recycleHook = func([]float64) {}

// RunLoop is the durable run loop: it runs rounds next..total-1, and with
// save set (standing in for opts.Save) saves the state entering round r+1
// after every opts.CheckpointEvery-th round and the last. opts.AfterRound
// runs after each round and its save; a signaled opts.Stop ends the run
// at the round boundary, saved, with ErrStopped. Snapshots fall only on
// round boundaries, so a resumed run replays an interrupted round whole.
func RunLoop(next, total int, opts RunOptions, round func(int) error, save func(nextRound int) error) error {
	every := max(opts.CheckpointEvery, 1)
	for r := next; r < total; r++ {
		if err := round(r); err != nil {
			return err
		}
		saved := false
		if save != nil && ((r+1)%every == 0 || r == total-1) {
			if err := save(r + 1); err != nil {
				return fmt.Errorf("fl: checkpoint after round %d: %w", r, err)
			}
			saved = true
		}
		if opts.AfterRound != nil {
			if err := opts.AfterRound(r); err != nil {
				return err
			}
		}
		select {
		case <-opts.Stop:
			if save != nil && !saved {
				if err := save(r + 1); err != nil {
					return fmt.Errorf("fl: final checkpoint after round %d: %w", r, err)
				}
			}
			return ErrStopped
		default:
		}
	}
	return nil
}
