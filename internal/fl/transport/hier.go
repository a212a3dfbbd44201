package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"github.com/cip-fl/cip/internal/fl/wire"
)

// Leaf is one non-root node of an aggregation tree: a coordinator for the
// tier below it and a client of its parent. A client-facing leaf runs the
// ordinary coordinator protocol against its shard roster; an interior
// node (Local.AcceptPartials) instead serves child aggregators, so trees
// compose to arbitrary depth. Either way, instead of advancing the global
// itself the node forwards one pre-division weighted partial (Σ wᵢ·uᵢ,
// Σ wᵢ, count) per round to its parent. The root — a Coordinator with
// AcceptPartials — folds one partial per child, so every tier's per-round
// traffic and memory scale with its fan-out, not the client population.
// Because the weighted mean is associative over (sum, weight) pairs, a
// tree computes bit-identically the same mean aggregate as a flat
// federation folding the same updates in the same order.
//
// The partial frame (wire.MsgPartial2) makes the tree failure-domain
// aware:
//
//   - Graceful degradation: a node that loses its local quorum but still
//     holds ≥1 valid update forwards a Degraded partial carrying its full
//     planned weight, so the parent's coverage accounting sees exactly
//     how much of the subtree went missing instead of losing the whole
//     shard (see Coordinator.CoverageFloor for the root-side policy).
//   - Failover: when the per-parent retry budget against Root is
//     exhausted, the node re-parents to each address in AltParents in
//     order, with a fresh backoff ramp per parent. Session tokens are
//     checked across failovers, so every address must front the same
//     federation session.
//   - Row sketches: when the root runs a robust rule, every node's round
//     core keeps a bottom-k row reservoir (internal/fl/robust.Sketch), the
//     same one a flat node keeps with room for every row. It rides each
//     partial and merges at every tier, and the root's core runs its rule
//     once over the merged rows — per-client rows the mean-only partials
//     cannot carry.
//   - Root-coordinated sampling: the root's SampleFraction/SampleSeed
//     ride the round broadcast down the tree; client-facing shards
//     apply it with their leaf ID mixed into the seed (quorum-clamped
//     per shard), so one directive thins the whole population. A
//     fail-stop shard (MinQuorum 0) would train its whole roster, so it
//     fails the round instead, as a flat fail-stop node refuses its own
//     SampleFraction at start-up.
//
// Reputation and quarantine stay at the client-facing tier (the only one
// that sees individual updates); every parent validates each partial
// structurally and semantically (weight/count positivity, finiteness,
// expectation bound, sketch shape, implied-mean norm bound) before
// folding it.
type Leaf struct {
	// ID identifies this node to its parent (its client ID in the
	// parent's roster).
	ID int
	// Root is the parent's address, dialed through Retry.
	Root string
	// AltParents are fallback parent addresses tried in order after the
	// per-parent retry budget against Root (then each earlier alternate)
	// is exhausted — the re-parenting path when a parent dies for good.
	// Every address must belong to the same federation session.
	AltParents []string
	// Local configures the tier-facing coordinator: roster size, quorum,
	// timeouts, sampling, reputation. Setting AcceptPartials makes this an
	// interior node serving child aggregators. Rounds is ignored (the root
	// drives the schedule), and Robust, Checkpoint, and Restore must be
	// unset — robust evaluation runs at the root over merged row sketches,
	// and non-root nodes are deliberately stateless across rounds (every
	// round's partial depends only on the root's broadcast).
	Local Coordinator
	// Retry controls dialing the parent: backoff, jitter, and the Stop
	// channel for clean shutdown (partials are never compressed).
	// MaxAttempts is the consecutive-failure budget per parent address
	// (refreshed whenever a session makes round progress).
	Retry RetryConfig
}

// ListenAndRun binds the shard listener on addr and runs the leaf; see
// RunWithListener.
func (l *Leaf) ListenAndRun(addr string, ready func(boundAddr string)) ([]float64, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	defer ln.Close()
	return l.RunWithListener(ln, ready)
}

// RunWithListener accepts the local roster (clients on a leaf, child
// aggregators on an interior node), joins the parent, and relays rounds
// until the root signals completion: each round frame from the parent is
// re-broadcast downward, the tier's contributions are folded into a
// weighted partial as they arrive, and the partial is sent up. It returns
// the last globals the root broadcast. A lost parent connection is
// redialed with backoff — the attempt budget refreshing on progress, as
// in RunClientRetry — and when one parent's budget runs dry the node
// fails over to the next AltParents address. A lost local quorum degrades
// gracefully as long as one valid contribution remains (see Leaf).
func (l *Leaf) RunWithListener(ln net.Listener, ready func(boundAddr string)) ([]float64, error) {
	c := &l.Local
	if err := errors.Join(checkCodec(c.Codec), checkCodec(l.Retry.Codec), c.checkTreeParent(),
		c.checkSampling(c.SampleFraction)); err != nil {
		return nil, err
	}
	switch {
	case c.Robust != nil:
		return nil, errors.New("transport: non-root tree nodes cannot use a robust rule: robust evaluation runs at the root over merged row sketches")
	case c.Checkpoint != nil || c.Restore != nil:
		return nil, errors.New("transport: tree nodes are stateless; checkpoint the root instead")
	}
	s := newSession(c) // Robust is nil: the mean fold
	s.wantPartial, s.leafID = true, l.ID
	closeAll, err := s.open(ln, ready, welcome{NextRound: 0})
	if err != nil {
		return nil, err
	}
	defer closeAll()

	rc := l.Retry.withDefaults()
	parents := append([]string{l.Root}, l.AltParents...)
	parent := 0
	rootToken := ""
	var lastErr error
	for attempt := 1; attempt <= rc.MaxAttempts; attempt++ {
		if !rc.pause(attempt) {
			return nil, ErrClientStopped
		}
		progressed, finished, err := l.rootSession(s, rc, parents[parent], &rootToken)
		if finished {
			if derr := s.sendDone(); derr != nil {
				return nil, derr
			}
			return s.core.Global, nil
		}
		if errors.Is(err, ErrClientStopped) || errors.As(err, &errFatal{}) {
			return nil, err
		}
		if progressed {
			attempt = 1 // refresh the backoff budget, as RunClientRetry does
		}
		lastErr = err
		if attempt == rc.MaxAttempts && parent+1 < len(parents) {
			// This parent's consecutive-failure budget is spent: fail over
			// to the next address with a fresh budget and backoff ramp.
			parent++
			attempt = 0
		}
	}
	return nil, lastErr
}

// rootSession runs one dial-relay session against the parent at addr.
// progressed reports whether at least one round completed (refreshing the
// retry budget); finished reports a clean MsgDone end.
func (l *Leaf) rootSession(s *session, rc RetryConfig, addr string, rootToken *string) (progressed, finished bool, err error) {
	conn, err := rc.Dial(addr)
	if err != nil {
		return false, false, fmt.Errorf("transport: leaf %d dialing parent %s: %w", l.ID, addr, err)
	}
	defer conn.Close()
	stopErr, unwatch := watchStop(conn, rc.Stop)
	defer unwatch()

	samples := 0
	for _, cc := range s.active {
		samples += cc.samples
	}
	br := bufio.NewReader(conn)
	w, err := clientHandshake(conn, br, hello{ID: l.ID, NumSamples: samples, Token: *rootToken, Partial: true})
	if err != nil {
		return false, false, stopErr(fmt.Errorf("transport: leaf %d %w", l.ID, err))
	}
	if !w.Partial {
		return false, false, errFatal{fmt.Errorf(
			"transport: coordinator at %s did not confirm the partial protocol (not a tree parent)", addr)}
	}
	if *rootToken == "" {
		*rootToken = w.Token
	} else if w.Token != *rootToken {
		return false, false, errFatal{errors.New("transport: parent session token changed mid-federation")}
	}

	for {
		typ, _, size, err := wire.ReadHeader(br, clientFrameBudget)
		if err != nil {
			return progressed, false, stopErr(fmt.Errorf("transport: leaf %d reading round frame: %w", l.ID, err))
		}
		if typ == wire.MsgDone {
			return progressed, true, nil
		} else if typ != wire.MsgRound2 {
			return progressed, false, errFatal{fmt.Errorf("transport: leaf %d: unexpected frame type %d from parent", l.ID, typ)}
		}
		// The parent's broadcast is this round's center, decoded over the
		// previous round's; its durable announce passes through so shard
		// clients bound their rollback captures against the root's
		// snapshots.
		rd, err := wire.ReadRound(br, size, s.core.Global)
		if invalid(err) {
			return progressed, false, errFatal{fmt.Errorf("transport: leaf %d decoding round frame: %w", l.ID, err)}
		} else if err != nil {
			return progressed, false, stopErr(fmt.Errorf("transport: leaf %d reading round frame: %w", l.ID, err))
		}
		s.core.Global = rd.Params
		s.durable = rd.Durable
		s.treeFrac, s.treeSeed, s.sketchCap = rd.SampleFrac, rd.SampleSeed, rd.SketchCap
		if rerr := s.runRound(rd.Round); rerr != nil {
			// Unrecoverable round failure (no valid contribution, local
			// coverage floor, ...): the node leaves the tree and lets the
			// parent's coverage accounting decide.
			return progressed, false, errFatal{rerr}
		}
		s.tx = wire.AppendPartial2Frame(s.tx[:0], s.partial)
		// One Write per frame: a connection cut mid-call tears the frame
		// on the wire, which the parent's byte-budgeted reader discards
		// whole (the torn-frame chaos tests depend on this).
		if _, werr := conn.Write(s.tx); werr != nil {
			return progressed, false, stopErr(fmt.Errorf("transport: leaf %d sending partial: %w", l.ID, werr))
		}
		progressed = true
	}
}
