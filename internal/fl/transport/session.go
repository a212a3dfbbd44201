package transport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// defaultInflight is the exchange window when MaxInflightUpdates is unset
// and the round keeps no column: large enough that small rosters exchange
// all at once, small enough that peak update memory at scale is a few
// hundred kilobytes per thousand parameters.
const defaultInflight = 64

// rejoinHandshakeTimeout bounds how long a parked rejoin connection may
// take to produce its hello; without it a silent dialer would pin an
// accept goroutine forever.
const rejoinHandshakeTimeout = 10 * time.Second

// session is the run state of one coordinator federation: the roster, the
// evolving global, the rejoin parking lot, and the per-round fold.
type session struct {
	c          *Coordinator
	global     []float64
	active     []*clientConn
	failCounts map[int]int
	// durable is the highest round covered by a snapshot on disk (-1 when
	// nothing is durable); leaves overwrite it with the root's announce.
	durable int
	token   string
	resumed bool
	// rxTally/txTally accumulate every wire byte either direction; the
	// per-round delta lands in the transport_round_bytes gauge.
	rxTally, txTally uint64

	// acc is the streaming accumulator, reused across rounds; nil when the
	// rule has no stream form or runs at a tree root over the merged row
	// reservoir (see initAggregation).
	acc fl.Accumulator
	// fold aliases acc when it is the weighted-mean fold: a node's partial
	// view, and the accumulator the global ping-pongs with.
	fold *fl.Fold
	// keep marks a session whose rounds keep their update column for the
	// round's tail; column holds the kept updates in cohort-ID order and
	// unheld the vectors among them no reservoir holds, given back once
	// the tail is done.
	keep   bool
	column []fl.Update
	unheld [][]float64
	// wantPartial marks a leaf session: rounds end by exposing the
	// pre-division fold through partial instead of advancing global.
	wantPartial bool
	leafID      int
	partial     fl.Partial
	// leafMean is the scratch for the leaf-local mean that reputation
	// scoring on a leaf measures deviations against.
	leafMean []float64

	// treeFrac/treeSeed/sketchCap hold the parent's per-round tree
	// directive (the round frame's): the sampling fraction and seed
	// client-facing shards apply, and the row-reservoir capacity partials
	// carry. A root sources the directive from its own configuration;
	// leaves overwrite these from each round frame.
	treeFrac  float64
	treeSeed  int64
	sketchCap int
	// plannedWeight/coveredWeight accumulate one round's planned versus
	// delivered cohort weight; their ratio is the round's coverage.
	plannedWeight, coveredWeight float64
	// sketch is the round's row reservoir: client rows on a client-facing
	// shard, merged child reservoirs on interior nodes and the robust
	// root. Nil when the tree needs no rows (mean-family rules).
	sketch *robust.Sketch
	// lastCoverage is the most recent round's coverage (1 until a round
	// tracks any); snapshots persist it for operator forensics.
	lastCoverage float64

	// bcast holds the round broadcast frame and tx a tree node's outgoing
	// partial frame, re-encoded in place every round; slots recycles the
	// vectors updates and partial sums decode into.
	bcast, tx []byte
	slots     slotPool

	pendingMu sync.Mutex
	pending   []*clientConn
	// acceptDone is closed when the rejoin accept loop exits.
	acceptDone chan struct{}
}

// slotPool is a coordinator session's free list of model-sized vectors. A
// window slot is taken when an admitted exchange's answer arrives and
// released once that is folded and tallied (or rejected), so at most the
// window is ever out, each allocated the first time the window gets that
// deep: two clients hold two slots. A kept column's slots go back after
// the round's tail (session.releaseColumn); sketch rows go back when the
// next round starts (session.releaseRows), or once a shard's reservoir
// lets one go.
type slotPool struct {
	mu   sync.Mutex
	free [][]float64
	held [][]float64 // rows taken by row this round
}

func (p *slotPool) get(n int) []float64 {
	p.mu.Lock()
	var v []float64
	if last := len(p.free) - 1; last >= 0 {
		v, p.free = p.free[last], p.free[:last]
	}
	p.mu.Unlock()
	if len(v) != n {
		v = make([]float64, n) // first use at this window depth (or a stale dimension)
	}
	return v
}

func (p *slotPool) put(v []float64) {
	if v == nil {
		return
	}
	poison(v)
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}

// row takes an n-long sketch row, held until the next round starts.
func (p *slotPool) row(n int) []float64 {
	v := p.get(n)
	p.mu.Lock()
	p.held = append(p.held, v)
	p.mu.Unlock()
	return v
}

// poisonReleased is a test hook, never set outside tests: every dense
// buffer the wire path recycles — a released slot, a client's params once
// its update is sent, the global a finalized round replaced — is filled
// with NaN first, so anything still aliasing one reads poison.
var poisonReleased atomic.Bool

func poison(v []float64) {
	if poisonReleased.Load() {
		for i := range v {
			v[i] = math.NaN()
		}
	}
}

// checkTreeParent refuses what a node serving child aggregators cannot
// run: observers and reputation read individual client updates, and its
// children send only subtree partials.
func (c *Coordinator) checkTreeParent() error {
	if c.AcceptPartials && (len(c.Observers) > 0 || c.Reputation != nil) {
		return errors.New("transport: a node serving child aggregators supports no observers or reputation")
	}
	return nil
}

// checkSampling refuses a fail-stop node that would sample its own
// clients by frac — its own SampleFraction at start-up, or on a leaf the
// directive its parent sends each round: the cohort is floored at the
// quorum, which without MinQuorum is the whole roster, so the fraction
// would silently train everyone. A node serving child aggregators only
// relays the directive and is exempt.
func (c *Coordinator) checkSampling(frac float64) error {
	if !c.AcceptPartials && frac > 0 && frac < 1 && !c.faultTolerant() {
		return fmt.Errorf("transport: SampleFraction %v needs MinQuorum > 0: a fail-stop round trains the whole roster",
			frac)
	}
	return nil
}

// initAggregation fixes how the session's rounds aggregate. Each
// contribution folds into the streaming accumulator as it arrives, except
// at a robust tree root, whose rule runs over the merged row reservoir,
// and under a rule with no stream form (Median, TrimmedMean). A
// client-facing node keeps its round's update column — O(cohort) memory —
// only for the readers that need every update at the round's end:
// observers, a reputation tracker, or a rule with no stream form.
func (s *session) initAggregation() {
	c := s.c
	if !(c.AcceptPartials && c.Robust != nil) {
		s.acc, _ = fl.NewAccumulator(c.Robust)
		s.fold, _ = s.acc.(*fl.Fold)
	}
	s.keep = !c.AcceptPartials && (s.acc == nil || len(c.Observers) > 0 || c.Reputation != nil)
}

// RunWithListener is ListenAndRun over an already-bound listener, so the
// in-memory load harness can drive a coordinator through net.Pipe without
// touching the network stack. The listener is closed before returning
// when the rejoin accept loop owns it.
func (c *Coordinator) RunWithListener(ln net.Listener, ready func(boundAddr string)) ([]float64, error) {
	if err := errors.Join(checkCodec(c.Codec), c.checkTreeParent(), c.checkSampling(c.SampleFraction)); err != nil {
		return nil, err
	}
	global := make([]float64, len(c.Initial))
	copy(global, c.Initial)
	startRound := 0
	token := ""
	failCounts := make(map[int]int)
	if c.Restore != nil {
		st := &c.Restore.State
		if len(st.Global) != len(c.Initial) {
			return nil, fmt.Errorf("transport: snapshot has %d global params, coordinator expects %d",
				len(st.Global), len(c.Initial))
		}
		copy(global, st.Global)
		startRound = st.NextRound
		token = c.Restore.Token
		for id, n := range st.FailCounts {
			failCounts[id] = n
		}
		if c.Reputation != nil && st.Reputation != nil {
			if err := c.Reputation.Restore(st.Reputation); err != nil {
				return nil, fmt.Errorf("transport: restoring reputation state: %w", err)
			}
		}
	} else if c.Checkpoint != nil {
		t, err := newToken()
		if err != nil {
			return nil, err
		}
		token = t
	}
	s := &session{
		c:            c,
		global:       global,
		failCounts:   failCounts,
		durable:      startRound - 1,
		token:        token,
		resumed:      c.Restore != nil,
		lastCoverage: 1,
	}
	s.initAggregation()
	every := c.CheckpointEvery
	if every < 1 {
		every = 1
	}
	// saveSnapshot persists the state as of entering nextRound. Snapshots
	// are round-boundary-only by design: a mid-round accumulator is never
	// captured, so a restart replays the interrupted round from its start.
	saveSnapshot := func(nextRound int) error {
		if c.Checkpoint == nil {
			return nil
		}
		snap := &checkpoint.Snapshot{Token: token}
		snap.State.NextRound = nextRound
		snap.State.Global = append([]float64(nil), s.global...)
		snap.State.LastCoverage = s.lastCoverage
		if len(s.failCounts) > 0 {
			snap.State.FailCounts = make(map[int]int, len(s.failCounts))
			for id, n := range s.failCounts {
				snap.State.FailCounts[id] = n
			}
		}
		if c.Reputation != nil {
			blob, err := c.Reputation.Snapshot()
			if err != nil {
				return fmt.Errorf("transport: capturing reputation state: %w", err)
			}
			snap.State.Reputation = blob
		}
		if err := c.Checkpoint.Save(snap); err != nil {
			return fmt.Errorf("transport: checkpoint after round %d: %w", nextRound-1, err)
		}
		s.durable = nextRound - 1
		return nil
	}

	if ready != nil {
		ready(ln.Addr().String())
	}
	active, err := c.acceptClients(ln, welcome{
		Token: token, NextRound: startRound, Resumed: s.resumed,
	}, &s.rxTally, &s.txTally)
	if err != nil {
		return nil, err
	}
	s.active = active
	defer s.closeConns()
	// Deterministic aggregation order regardless of connect order.
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })

	if c.AcceptRejoins {
		s.acceptDone = make(chan struct{})
		go s.acceptLoop(ln)
		defer func() {
			ln.Close() //nolint:errcheck — unblocks the accept loop; double close is benign
			<-s.acceptDone
		}()
	}

	for round := startRound; round < c.Rounds; round++ {
		if err := s.runRound(round); err != nil {
			return nil, err
		}
		wrote := false
		if c.Checkpoint != nil && ((round+1)%every == 0 || round == c.Rounds-1) {
			if err := saveSnapshot(round + 1); err != nil {
				return nil, err
			}
			wrote = true
		}
		if c.AfterRound != nil {
			if err := c.AfterRound(round); err != nil {
				return nil, err
			}
		}
		if c.Stop != nil {
			select {
			case <-c.Stop:
				if !wrote {
					if err := saveSnapshot(round + 1); err != nil {
						return nil, err
					}
				}
				return nil, fl.ErrStopped
			default:
			}
		}
	}

	if err := s.sendDone(); err != nil {
		return nil, err
	}
	return s.global, nil
}

// closeConns tears down every roster and parked connection at run end.
func (s *session) closeConns() {
	for _, cc := range s.active {
		cc.conn.Close()
	}
	s.pendingMu.Lock()
	pend := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	for _, cc := range pend {
		cc.conn.Close()
	}
}

// sendDone signals completion to every surviving client.
func (s *session) sendDone() error {
	c := s.c
	for _, cc := range s.active {
		if c.RoundTimeout > 0 {
			cc.conn.SetWriteDeadline(time.Now().Add(c.RoundTimeout)) //nolint:errcheck
		}
		if _, err := cc.w.Write(wire.AppendDoneFrame(nil)); err != nil && !c.faultTolerant() {
			return fmt.Errorf("transport: sending done to client %d: %w", cc.id, err)
		}
	}
	return nil
}

// acceptLoop keeps accepting connections after the federation starts
// (AcceptRejoins): each newcomer is handshaked under a deadline and
// parked; admission happens at the next round boundary. The loop exits
// when the listener closes.
func (s *session) acceptLoop(ln net.Listener) {
	defer close(s.acceptDone)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(rejoinHandshakeTimeout)) //nolint:errcheck
			cc, err := s.c.handshake(conn, s.token, &s.rxTally, &s.txTally)
			if err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{}) //nolint:errcheck
			s.pendingMu.Lock()
			s.pending = append(s.pending, cc)
			s.pendingMu.Unlock()
		}(conn)
	}
}

// admitPending welcomes parked rejoin connections into the roster at a
// round boundary: each is welcomed with NextRound = the admitted round,
// replaces any same-ID roster entry (a dead connection the round loop has
// not yet noticed, or the ghost of the crashed process this one
// replaces), and exchanges from this round on. Welcomes are deferred to
// the boundary because a welcome sent mid-round would promise a NextRound
// the coordinator is still mutating.
func (s *session) admitPending(round int) {
	s.pendingMu.Lock()
	pend := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	if len(pend) == 0 {
		return
	}
	for _, cc := range pend {
		if err := cc.sendWelcome(welcome{Token: s.token, NextRound: round, Resumed: s.resumed}); err != nil {
			cc.conn.Close()
			continue
		}
		replaced := false
		for i, old := range s.active {
			if old.id == cc.id {
				old.conn.Close()
				s.active[i] = cc
				replaced = true
				break
			}
		}
		if !replaced {
			s.active = append(s.active, cc)
		}
		if cc.hadToken && s.resumed {
			s.c.Metrics.rejoin()
		}
		s.c.Metrics.connAccepted()
	}
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
}

// sampleCohort draws this round's cohort from the eligible roster through
// fl.SampleCohort, weighted by each client's registered sample count and
// floored at the quorum. The idle remainder receives no round frame, which
// in this synchronous protocol simply leaves those clients blocked on
// their next read until a later round samples them.
func (s *session) sampleCohort(round int, eligible []*clientConn) (cohort, idle []*clientConn) {
	f, seed := s.effectiveSample()
	return fl.SampleCohort(eligible, func(cc *clientConn) int { return cc.samples }, f, seed, round, s.c.quorum())
}

// effectiveSample resolves which cohort-sampling directive this node
// applies locally. A tree parent never thins its child aggregators — the
// directive rides the round frame and is applied by the client-facing
// shards, each mixing its leaf ID into the distributed seed so sibling
// shards draw independent cohorts from one root-coordinated fraction.
// Everything else samples from local configuration.
func (s *session) effectiveSample() (frac float64, seed int64) {
	if s.c.AcceptPartials {
		return 0, 0
	}
	if s.wantPartial && s.treeFrac > 0 {
		return s.treeFrac, s.treeSeed ^ int64(robust.KeyLeaf(s.leafID))
	}
	return s.c.SampleFraction, s.c.SampleSeed
}

// distSample is the sampling directive a node broadcasts in its round
// frame this round: the root's own configuration, relayed unchanged by
// interior nodes so the whole tree acts on one directive.
func (s *session) distSample() (frac float64, seed int64) {
	if s.wantPartial {
		return s.treeFrac, s.treeSeed
	}
	return s.c.SampleFraction, s.c.SampleSeed
}

// distSketchCap is the row-reservoir capacity in force this round: the
// parent's directive on leaves and interior nodes, the configured
// capacity at the root. It sizes the local reservoir, the inbound partial
// byte budget, and the capacity distributed onward.
func (s *session) distSketchCap() int {
	if s.wantPartial {
		return s.sketchCap
	}
	return s.c.treeSketchCap()
}

// tallyUpdate credits one accepted client update to the round's coverage
// ledger (its fold weight counts as both planned and delivered) and, when
// the round carries a row reservoir, retains the update's vector itself as
// a client-keyed sketch row. It returns the vector no reservoir holds: the
// update's own, one it evicted, or nil.
func (s *session) tallyUpdate(u fl.Update) (free []float64) {
	w := float64(u.NumSamples)
	if w <= 0 {
		w = 1
	}
	s.plannedWeight += w
	s.coveredWeight += w
	if s.sketch == nil {
		return u.Params
	}
	return s.sketch.Insert(robust.KeyClient(u.ClientID), u.Params)
}

// releaseRows runs when a round starts, after the previous round's rule
// and partial encode have read its sketch rows, and gives each back once:
// the held rows (kept, evicted or dropped by Merge alike) and the update
// slots a client-facing shard's reservoir kept.
func (s *session) releaseRows() {
	rows := s.slots.held
	if s.sketch != nil && !s.c.AcceptPartials {
		rows = append(rows, s.sketch.Vals...)
	}
	for _, v := range rows {
		s.slots.put(v)
	}
	clear(rows)
	s.slots.held = rows[:0]
}

// tallyPartial credits one accepted child partial: planned weight is the
// child's own expectation (falling back to its delivered weight when it
// carries none), delivered weight is what arrived. Child reservoirs merge
// into the local one; a sketchless child contributes its implied mean as
// a single leaf-keyed row, so robust rules still see every subtree.
func (s *session) tallyPartial(p fl.Partial) error {
	expect := p.ExpectWeight
	if expect <= 0 {
		expect = p.Weight
	}
	s.plannedWeight += expect
	s.coveredWeight += p.Weight
	if s.sketch == nil {
		return nil
	}
	if p.Sketch != nil {
		return s.sketch.Merge(p.Sketch)
	}
	row := s.slots.row(len(p.Sum))
	for i, v := range p.Sum {
		row[i] = v / p.Weight
	}
	s.sketch.Insert(robust.KeyLeaf(p.LeafID), row)
	return nil
}

// stampPartial finishes the round's outgoing partial with its coverage
// fields: the planned (pre-failure) cohort weight, the degradation flag,
// and the round's row reservoir.
func (s *session) stampPartial(degraded bool) {
	s.partial.ExpectWeight = s.plannedWeight
	s.partial.Degraded = degraded
	s.partial.Sketch = s.sketch
}

// runRound executes one communication round over the current roster:
// admit parked rejoiners, split out quarantined clients, sample the
// cohort, exchange and fold (runStream), enforce quorum, then run the
// round's one tail (observers, aggregate, reputation, install the global,
// give back the kept column) and record telemetry. On success s.global
// holds the new aggregate (or, on a leaf, s.partial holds the
// pre-division sums for the root).
func (s *session) runRound(round int) error {
	c := s.c
	roundStart := time.Now()
	s.admitPending(round)
	bytesBefore := atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally)

	// Quarantined clients are skipped for the round: no round message,
	// no update, no influence. Their connections stay open so a later
	// probation can re-admit them without a reconnect.
	eligible := s.active
	var blocked []*clientConn
	var failures []fl.ClientFailure
	if c.Reputation != nil {
		eligible = make([]*clientConn, 0, len(s.active))
		for _, cc := range s.active {
			if c.Reputation.Blocked(cc.id) {
				blocked = append(blocked, cc)
				failures = append(failures, fl.ClientFailure{
					ClientID: cc.id, Round: round, Reason: fl.FailQuarantined,
					Err: fmt.Errorf("transport: client %d is quarantined", cc.id),
				})
				continue
			}
			eligible = append(eligible, cc)
		}
	}
	// Start-up refused a fail-stop node's own SampleFraction; a leaf's
	// per-round directive from its parent is refused here.
	applied, _ := s.effectiveSample()
	if err := c.checkSampling(applied); err != nil {
		return fmt.Errorf("transport: round %d: parent's sampling directive: %w", round, err)
	}
	cohort, idle := s.sampleCohort(round, eligible)

	s.plannedWeight, s.coveredWeight = 0, 0
	s.releaseRows()
	s.sketch = nil
	distCap := s.distSketchCap()
	if distCap > 0 {
		s.sketch = robust.NewSketch(distCap)
	}
	budget := c.updateBudget()
	if c.AcceptPartials {
		budget = c.partialBudget(distCap)
	}
	frac, seed := s.distSample()
	s.bcast = wire.AppendRound2Frame(s.bcast[:0], wire.Round2{
		Round: round, Durable: s.durable, Params: s.global,
		SampleFrac: frac, SampleSeed: seed, SketchCap: distCap,
	})
	rc := &roundCtx{
		round: round, global: s.global, bcast: s.bcast,
		timeout: c.RoundTimeout, budget: budget,
		maxNorm: c.MaxUpdateNorm, met: c.Metrics, slots: &s.slots,
	}

	if s.acc != nil {
		s.acc.Begin(s.global)
	}
	survivors, ffs, nValid, err := s.runStream(rc, cohort)
	if err != nil {
		return err
	}
	failures = append(failures, ffs...)
	s.active = append(append(survivors, idle...), blocked...)
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
	degraded := false
	if nValid < c.quorum() {
		if !(s.wantPartial && nValid >= 1) {
			return fmt.Errorf("transport: round %d: quorum lost: %d valid updates, need %d",
				round, nValid, c.quorum())
		}
		// Graceful degradation: a below-quorum tree node forwards what it
		// has — flagged Degraded, its planned weight intact — instead of
		// stalling or leaving the tree.
		degraded = true
	}
	coverage := 1.0
	if s.plannedWeight > 0 {
		coverage = s.coveredWeight / s.plannedWeight
	}
	s.lastCoverage = coverage
	if c.AcceptPartials {
		c.RoundMetrics.RecordRoundCoverage(coverage)
		if c.CoverageFloor > 0 && coverage < c.CoverageFloor {
			return fmt.Errorf("transport: round %d: coverage %.4f below floor %.4f (%.1f of %.1f planned cohort weight arrived)",
				round, coverage, c.CoverageFloor, s.coveredWeight, s.plannedWeight)
		}
	}
	// The tail. Observers see the pre-round global and the kept column;
	// every reader of the column runs before releaseColumn gives its
	// slots back.
	for _, o := range c.Observers {
		if fo, ok := o.(fl.FailureObserver); ok {
			fo.ObserveFailures(round, failures)
		}
	}
	for _, o := range c.Observers {
		o.ObserveRound(round, s.global, s.column)
	}
	report := robust.Report{Contributors: nValid}
	if s.wantPartial {
		s.partial = s.fold.PartialView(s.leafID, round)
		s.stampPartial(degraded)
		if c.Reputation != nil {
			if len(s.leafMean) != len(s.global) {
				s.leafMean = make([]float64, len(s.global))
			}
			if err := s.fold.FinalizeInto(s.leafMean); err != nil {
				return fmt.Errorf("transport: round %d: %w", round, err)
			}
			fl.ScoreReputation(c.Reputation, s.leafMean, s.column, failures)
		}
	} else {
		var agg []float64
		switch {
		case s.acc != nil:
			agg, report, err = s.acc.Finalize()
		case c.AcceptPartials:
			// Robust tree root: the rule runs over the merged row reservoir
			// — exact per-client rows while the tree's total stays within
			// the sketch capacity, a uniform K-subsample (documented rank
			// bound) above it. Subtree-level quorum was already enforced on
			// nValid.
			agg, report, err = c.Robust.Aggregate(s.global, s.sketch.RowsView(), nil)
		default:
			agg, report, err = fl.AggregateRobust(c.Robust, s.global, s.column, c.MinQuorum)
		}
		if err != nil {
			return fmt.Errorf("transport: round %d: %w", round, err)
		}
		fl.ScoreReputation(c.Reputation, agg, s.column, failures)
		s.installGlobal(agg)
	}
	s.releaseColumn()

	c.Metrics.roundBytes(atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally) - bytesBefore)
	c.RoundMetrics.RecordRound(roundStart, nValid, len(failures), len(s.global))
	c.RoundMetrics.RecordRobust(report)
	c.RoundMetrics.RecordReputation(c.Reputation)
	return nil
}

// installGlobal makes the round's aggregate the global once nothing reads
// the one it supersedes — the session's own copy of Initial or an earlier
// aggregate, never a slice anyone else was handed. Under the mean fold
// that one accumulates next (Fold.Recycle ping-pong); any other rule's
// output draws from robust.Recycle's list, so it goes back there.
func (s *session) installGlobal(agg []float64) {
	poison(s.global)
	if s.fold != nil {
		s.fold.Recycle(s.global)
	} else {
		robust.Recycle(s.global)
	}
	s.global = agg
}

// releaseColumn ends a kept round's tail: observers, the rule and
// reputation have read the column, so its slots no reservoir holds go
// back to the pool.
func (s *session) releaseColumn() {
	for _, v := range s.unheld {
		s.slots.put(v)
	}
	clear(s.unheld)
	clear(s.column)
	s.unheld, s.column = s.unheld[:0], s.column[:0]
}

// classifyFailure handles one failed exchange in fault-tolerant mode:
// close the connection, record telemetry and reputation evidence, and
// return the failure record.
func (s *session) classifyFailure(cc *clientConn, round int, err error) fl.ClientFailure {
	c := s.c
	cc.conn.Close()
	reason := failureReason(err)
	switch reason {
	case fl.FailTimeout:
		c.Metrics.stragglerDropped()
	case fl.FailInvalid:
		c.RoundMetrics.RecordValidationRejection()
		if c.Reputation != nil {
			c.Reputation.ObserveViolation(cc.id)
		}
	}
	// The failed member's registered weight was planned but never arrives,
	// pulling the round's coverage below 1; losing a partial child means a
	// whole subtree dropped out mid-round.
	w := float64(cc.samples)
	if w <= 0 {
		w = 1
	}
	s.plannedWeight += w
	if cc.partial {
		c.RoundMetrics.RecordTreeShardLost()
	}
	s.failCounts[cc.id]++
	return fl.ClientFailure{ClientID: cc.id, Round: round, Reason: reason, Err: err}
}

// runStream executes one round's exchanges through the bounded window: a
// pool of min(W, cohort) workers claims cohort positions from a shared
// counter, the ordered-admission gate keeps at most W exchanges in flight
// (position i may start only once i < foldedBase+W, so the round frame is
// broadcast at admission and at most ~W decoded updates are ever live),
// and this goroutine takes each result in strict roster-position order:
// it folds it (when the session has an accumulator), tallies it, then
// frees its slot or keeps it in the round's column. Because that order is
// the cohort's ID order regardless of arrival timing, the aggregate is
// bit-identical to the batch rule's over the same updates. W is
// MaxInflightUpdates (default 64), or the whole cohort when the round
// keeps its column: that memory is O(cohort) anyway, and every member
// then exchanges at once under its own RoundTimeout.
//
// Deadlock-freedom: the folder only waits on position base, and position
// base always passes the gate (base < base+W), so some worker is always
// able to complete it.
func (s *session) runStream(rc *roundCtx, cohort []*clientConn) (survivors []*clientConn, failures []fl.ClientFailure, nValid int, err error) {
	c := s.c
	if len(cohort) == 0 {
		return nil, nil, 0, nil
	}
	w := c.MaxInflightUpdates
	if w <= 0 {
		w = defaultInflight
	}
	if s.keep || w > len(cohort) {
		w = len(cohort)
	}
	type slot struct {
		u    fl.Update
		p    fl.Partial
		err  error
		done bool
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ring     = make([]slot, w)
		base     int
		claimed  = int64(-1)
		aborted  bool
		inflight int
		peak     int
	)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(atomic.AddInt64(&claimed, 1))
				if pos >= len(cohort) {
					return
				}
				mu.Lock()
				for pos >= base+w && !aborted {
					cond.Wait()
				}
				if aborted {
					mu.Unlock()
					return
				}
				inflight++
				if inflight > peak {
					peak = inflight
				}
				rc.met.inflight(inflight)
				mu.Unlock()
				cc := cohort[pos]
				var sl slot
				if cc.partial {
					sl.err = cc.exchangePartial(rc, &sl.p)
				} else {
					sl.err = cc.exchange(rc, &sl.u)
				}
				sl.done = true
				// Ring slots cannot collide: the gate bounds live
				// positions to [base, base+w), and distinct positions in
				// a w-wide window map to distinct slots mod w.
				mu.Lock()
				ring[pos%w] = sl
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	advance := func() {
		mu.Lock()
		base++
		inflight--
		rc.met.inflight(inflight)
		cond.Broadcast()
		mu.Unlock()
	}
	for pos := 0; pos < len(cohort); pos++ {
		mu.Lock()
		for !ring[pos%w].done {
			cond.Wait()
		}
		sl := ring[pos%w]
		ring[pos%w] = slot{}
		mu.Unlock()
		cc := cohort[pos]
		if sl.err == nil {
			if cc.partial {
				if s.acc != nil {
					sl.err = s.acc.FoldPartial(sl.p)
				}
				if sl.err == nil {
					sl.err = s.tallyPartial(sl.p)
				}
				if sl.err == nil {
					rc.met.partialAccepted()
				}
				rc.slots.put(sl.p.Sum) // a reservoir keeps rows, never the sums
			} else {
				free := sl.u.Params
				if s.acc != nil {
					sl.err = s.acc.Fold(sl.u)
				}
				if sl.err == nil {
					free = s.tallyUpdate(sl.u)
					if s.keep {
						s.column = append(s.column, sl.u)
						s.unheld = append(s.unheld, free)
						free = nil
					}
				}
				// Folded and tallied: free whatever no reservoir or column holds.
				rc.slots.put(free)
			}
		}
		if sl.err == nil {
			nValid++
			survivors = append(survivors, cc)
			advance()
			continue
		}
		if !c.faultTolerant() {
			// Fail-stop: this is the earliest error in fold order,
			// whatever the arrival order. Unblock gate waiters, cut the
			// in-flight I/O, and drain the pool.
			mu.Lock()
			aborted = true
			cond.Broadcast()
			mu.Unlock()
			for _, other := range cohort {
				other.conn.Close()
			}
			wg.Wait()
			rc.met.inflight(0)
			return nil, nil, 0, sl.err
		}
		failures = append(failures, s.classifyFailure(cc, rc.round, sl.err))
		advance()
	}
	wg.Wait()
	rc.met.inflight(0)
	// A kept column holds every accepted update until the round's tail.
	if s.keep {
		peak = len(cohort)
	}
	c.RoundMetrics.RecordRoundPeakUpdateBytes(uint64(peak) * 8 * uint64(len(rc.global)))
	return survivors, failures, nValid, nil
}
