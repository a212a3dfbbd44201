package transport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
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
	c      *Coordinator
	active []*clientConn
	// core holds the global, the failure counts and the round machinery
	// shared with the in-process engine: the ordered exchange window, the
	// in-order fold, the quorum check and the round's tail.
	core fl.RoundCore
	// durable is the highest round covered by a snapshot on disk (-1 when
	// nothing is durable); leaves overwrite it with the root's announce.
	durable int
	token   string
	resumed bool
	// rxTally/txTally accumulate every wire byte either direction; the
	// per-round delta lands in the transport_round_bytes gauge.
	rxTally, txTally uint64
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
}

// slotPool is a coordinator session's free list of model-sized vectors. A
// window slot is taken when an admitted exchange's answer arrives and
// released once that is folded and tallied (or rejected), so at most the
// window is ever out, each allocated the first time the window gets that
// deep: two clients hold two slots. The vectors the round core keeps — a
// kept column's slots, a client-facing node's reservoir rows, a parent's
// decoded sketch rows — are held until the next round starts
// (session.releaseRows), or until a shard's reservoir lets a row go.
type slotPool struct {
	mu   sync.Mutex
	free [][]float64
	held [][]float64 // vectors held this round
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
	p.hold(v)
	return v
}

// hold keeps v out of the free list until the next round starts.
func (p *slotPool) hold(v []float64) {
	if v == nil {
		return
	}
	p.mu.Lock()
	p.held = append(p.held, v)
	p.mu.Unlock()
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

// newSession builds a coordinator session from Initial, aggregating by the
// coordinator's rule (see fl.RoundCore).
func newSession(c *Coordinator) *session {
	s := &session{c: c, durable: -1, lastCoverage: 1}
	s.core.Global = append([]float64(nil), c.Initial...)
	s.core.Observers, s.core.Reputation, s.core.Metrics = c.Observers, c.Reputation, c.RoundMetrics
	s.core.SetRule(c.Robust)
	return s
}

// RunWithListener is ListenAndRun over an already-bound listener, so the
// in-memory load harness can drive a coordinator through net.Pipe without
// touching the network stack. The listener is closed before returning
// when the rejoin accept loop owns it.
func (c *Coordinator) RunWithListener(ln net.Listener, ready func(boundAddr string)) ([]float64, error) {
	if err := errors.Join(checkCodec(c.Codec), c.checkTreeParent(), c.checkSampling(c.SampleFraction)); err != nil {
		return nil, err
	}
	s := newSession(c)
	startRound := 0
	if c.Restore != nil {
		if err := s.core.Restore(&c.Restore.State); err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		startRound = c.Restore.State.NextRound
		s.token, s.resumed, s.durable = c.Restore.Token, true, startRound-1
	} else if c.Checkpoint != nil {
		t, err := newToken()
		if err != nil {
			return nil, err
		}
		s.token = t
	}
	// save persists the state as of entering nextRound.
	var save func(nextRound int) error
	if c.Checkpoint != nil {
		save = func(nextRound int) error {
			snap := &checkpoint.Snapshot{Token: s.token}
			snap.State.NextRound, snap.State.LastCoverage = nextRound, s.lastCoverage
			if err := s.core.Capture(&snap.State); err != nil {
				return err
			}
			if err := c.Checkpoint.Save(snap); err != nil {
				return err
			}
			s.durable = nextRound - 1
			return nil
		}
	}

	closeAll, err := s.open(ln, ready, welcome{Token: s.token, NextRound: startRound, Resumed: s.resumed})
	if err != nil {
		return nil, err
	}
	defer closeAll()
	opts := fl.RunOptions{CheckpointEvery: c.CheckpointEvery, Stop: c.Stop, AfterRound: c.AfterRound}
	if err := fl.RunLoop(startRound, c.Rounds, opts, s.runRound, save); err != nil {
		return nil, err
	}
	if err := s.sendDone(); err != nil {
		return nil, err
	}
	return s.core.Global, nil
}

// open reports the bound address to ready, admits the initial roster —
// in client-ID order, so folds are deterministic whatever the connect
// order — and starts the rejoin accept loop under AcceptRejoins. The
// returned closeAll stops that loop (closing the listener unblocks it) and
// tears down every connection.
func (s *session) open(ln net.Listener, ready func(string), w welcome) (closeAll func(), err error) {
	if ready != nil {
		ready(ln.Addr().String())
	}
	if s.active, err = s.c.acceptClients(ln, w, &s.rxTally, &s.txTally); err != nil {
		return nil, err
	}
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
	if !s.c.AcceptRejoins {
		return s.closeConns, nil
	}
	done := make(chan struct{})
	go func() {
		s.acceptLoop(ln)
		close(done)
	}()
	return func() {
		ln.Close() //nolint:errcheck — a double close is benign
		<-done
		s.closeConns()
	}, nil
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
		if i := slices.IndexFunc(s.active, func(old *clientConn) bool { return old.id == cc.id }); i >= 0 {
			s.active[i].conn.Close()
			s.active[i] = cc
		} else {
			s.active = append(s.active, cc)
		}
		if cc.hadToken && s.resumed {
			s.c.Metrics.rejoin()
		}
		s.c.Metrics.connAccepted()
	}
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
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

// distDirective is the tree directive a node broadcasts in its round frame
// this round — the sampling fraction and seed, and the row-reservoir
// capacity: the root's own configuration, relayed unchanged by leaves and
// interior nodes so the whole tree acts on one directive. The capacity
// also sizes the local reservoir and the inbound partial byte budget.
func (s *session) distDirective() (frac float64, seed int64, sketchCap int) {
	if s.wantPartial {
		return s.treeFrac, s.treeSeed, s.sketchCap
	}
	return s.c.SampleFraction, s.c.SampleSeed, s.c.treeSketchCap()
}

// releaseRows runs when a round starts, after the previous round's tail
// and partial encode have read its column and reservoir, and gives each
// vector back once: the held ones (column slots, and a parent's sketch
// rows kept, evicted or dropped by a merge alike) and the update slots a
// client-facing node's reservoir kept.
func (s *session) releaseRows() {
	rows := s.slots.held
	if sk := s.core.Reservoir(); sk != nil && !s.c.AcceptPartials {
		rows = append(rows, sk.Vals...)
	}
	for _, v := range rows {
		s.slots.put(v)
	}
	clear(rows)
	s.slots.held = rows[:0]
}

// runRound executes one communication round over the current roster
// through the round core: admit parked rejoiners, split out quarantined
// clients, sample the cohort, exchange and fold (exchangeAll), enforce
// quorum, then run the round's one tail (observers, aggregate,
// reputation, install the global) and record
// telemetry. On success the core's Global holds the new aggregate (or, on
// a leaf, s.partial holds the pre-division sums for the root).
func (s *session) runRound(round int) error {
	c, r := s.c, &s.core
	s.releaseRows()
	distFrac, distSeed, distCap := s.distDirective()
	r.Begin(round, distCap)
	s.admitPending(round)
	bytesBefore := atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally)

	// Quarantined clients are skipped for the round: no round message,
	// no update, no influence. Their connections stay open so a later
	// probation can re-admit them without a reconnect.
	eligible, blocked := fl.SplitQuarantined(r, s.active, func(cc *clientConn) int { return cc.id })
	// Start-up refused a fail-stop node's own SampleFraction; a leaf's
	// per-round directive from its parent is refused here.
	frac, seed := s.effectiveSample()
	if err := c.checkSampling(frac); err != nil {
		return fmt.Errorf("transport: round %d: parent's sampling directive: %w", round, err)
	}
	// The cohort is weighted by each client's registered sample count and
	// floored at the quorum. The idle remainder receives no round frame,
	// which in this synchronous protocol leaves those clients blocked on
	// their next read until a later round samples them.
	cohort, idle := fl.SampleCohort(eligible, func(cc *clientConn) int { return cc.samples }, frac, seed, round, c.quorum())

	s.plannedWeight, s.coveredWeight = 0, 0
	budget := c.updateBudget()
	if c.AcceptPartials {
		budget = c.partialBudget(distCap)
	}
	s.bcast = wire.AppendRound2Frame(s.bcast[:0], wire.Round2{
		Round: round, Durable: s.durable, Params: r.Global,
		SampleFrac: distFrac, SampleSeed: distSeed, SketchCap: distCap,
	})
	rc := &roundCtx{
		round: round, global: r.Global, bcast: s.bcast,
		timeout: c.RoundTimeout, budget: budget,
		maxNorm: c.MaxUpdateNorm, met: c.Metrics, slots: &s.slots,
	}
	survivors, err := s.exchangeAll(rc, cohort)
	if err != nil {
		return err
	}
	s.active = append(append(survivors, idle...), blocked...)
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
	// Graceful degradation: a below-quorum tree node forwards what it has
	// — flagged Degraded, its planned weight intact — instead of stalling
	// or leaving the tree.
	degraded, err := r.Check(len(cohort), c.quorum(), 0, s.wantPartial)
	if err != nil {
		return err
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
	// The tail. The kept column's slots and the reservoir's rows go back
	// when the next round starts, after every reader of them.
	r.Observe()
	var report robust.Report
	if s.wantPartial {
		// The outgoing partial carries the round's coverage fields: the
		// planned (pre-failure) cohort weight, the degradation flag and the
		// row reservoir.
		fold := r.MeanFold()
		s.partial = fold.PartialView(s.leafID, round)
		s.partial.ExpectWeight, s.partial.Degraded, s.partial.Sketch = s.plannedWeight, degraded, r.Reservoir()
		if c.Reputation != nil {
			// A leaf scores its clients against the leaf-local mean.
			if len(s.leafMean) != len(r.Global) {
				s.leafMean = make([]float64, len(r.Global))
			}
			if err := fold.FinalizeInto(s.leafMean); err != nil {
				return fmt.Errorf("transport: round %d: %w", round, err)
			}
			r.Score(s.leafMean)
		}
	} else {
		var agg []float64
		agg, report, err = r.Aggregate(c.MinQuorum)
		if err != nil {
			return fmt.Errorf("transport: round %d: %w", round, err)
		}
		poison(r.Global)
		r.Advance(agg)
	}
	c.Metrics.roundBytes(atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally) - bytesBefore)
	r.End(report)
	return nil
}

// classifyFailure handles one failed exchange in fault-tolerant mode:
// close the connection, record the transport's telemetry, and return the
// failure record.
func (s *session) classifyFailure(cc *clientConn, round int, err error) fl.ClientFailure {
	c := s.c
	cc.conn.Close()
	reason := failureReason(err)
	if reason == fl.FailTimeout {
		c.Metrics.stragglerDropped()
	}
	// The failed member's registered weight was planned but never arrives,
	// pulling the round's coverage below 1; losing a partial child means a
	// whole subtree dropped out mid-round.
	s.plannedWeight += fl.SampleWeight(cc.samples)
	if cc.partial {
		c.RoundMetrics.RecordTreeShardLost()
	}
	return fl.ClientFailure{ClientID: cc.id, Round: round, Reason: reason, Err: err}
}

// exchangeAll runs one round's exchanges through the round core's ordered
// window (fl.RunWindow) and takes each result in cohort order — the
// cohort's ID order, whatever the arrival timing, so the aggregate is
// bit-identical to the batch rule's over the same updates. The round
// frame is broadcast at admission, so at most the window's decoded
// updates are ever live. The window is MaxInflightUpdates (default 64), or
// the whole cohort when the round holds every update until its tail (a
// kept column, or a flat reservoir under a sort-based rule): that memory
// is O(cohort) anyway, and every member then exchanges at once under its
// own RoundTimeout. A fail-stop failure cuts every cohort connection, which
// ends the exchanges still in flight.
func (s *session) exchangeAll(rc *roundCtx, cohort []*clientConn) (survivors []*clientConn, err error) {
	c := s.c
	w := c.MaxInflightUpdates
	if w <= 0 {
		w = defaultInflight
	}
	if s.core.Keeps() {
		w = len(cohort)
	}
	type result struct {
		u   fl.Update
		p   fl.Partial
		err error
	}
	peak, err := fl.RunWindow(len(cohort), fl.Window{
		Workers: w, Size: w, Inflight: rc.met.inflight,
		Abort: func() {
			for _, cc := range cohort {
				cc.conn.Close()
			}
		},
	}, func(pos int) (res result) {
		res.err = cohort[pos].exchange(rc, &res.u, &res.p)
		return res
	}, func(pos int, res result) error {
		cc := cohort[pos]
		if res.err == nil {
			if cc.partial {
				res.err = s.foldPartial(res.p)
			} else {
				res.err = s.foldUpdate(res.u)
			}
		}
		if res.err == nil {
			survivors = append(survivors, cc)
			return nil
		}
		if !c.faultTolerant() {
			return res.err // the earliest error in fold order, whatever the arrival order
		}
		s.core.Fail(s.classifyFailure(cc, rc.round, res.err))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A round that keeps every accepted update holds them until its tail.
	if s.core.Keeps() {
		peak = len(cohort)
	}
	c.RoundMetrics.RecordRoundPeakUpdateBytes(uint64(peak) * 8 * uint64(len(rc.global)))
	return survivors, nil
}

// foldUpdate folds one client update, credits it to the round's coverage
// ledger — its weight counts as both planned and delivered — and frees the
// vector the round core does not keep, or holds it until the next round
// while the round keeps its column.
func (s *session) foldUpdate(u fl.Update) error {
	free, err := s.core.Fold(u)
	if err != nil {
		s.slots.put(u.Params)
		return err
	}
	w := fl.SampleWeight(u.NumSamples)
	s.plannedWeight += w
	s.coveredWeight += w
	if s.core.Keeps() {
		s.slots.hold(free)
	} else {
		s.slots.put(free)
	}
	return nil
}

// foldPartial folds one child partial, then frees its sums. Its planned
// weight is the child's own expectation (its delivered weight when it
// carries none); its delivered weight is what arrived.
func (s *session) foldPartial(p fl.Partial) error {
	defer s.slots.put(p.Sum)
	if err := s.core.FoldPartial(p); err != nil {
		return err
	}
	expect := p.ExpectWeight
	if expect <= 0 {
		expect = p.Weight
	}
	s.plannedWeight += expect
	s.coveredWeight += p.Weight
	s.c.Metrics.partialAccepted()
	return nil
}
