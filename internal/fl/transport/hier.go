package transport

import (
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
	// Retry controls dialing the parent: backoff and the Stop channel for
	// clean shutdown (partials are never compressed). MaxAttempts is the
	// consecutive-failure budget per parent address (refreshed whenever a
	// session makes round progress).
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
	rootToken := ""
	// A leaf seeds its backoff jitter with its ID's complement: client IDs
	// are non-negative, so no client shares a leaf's schedule.
	err = rc.retry(^int64(l.ID), append([]string{l.Root}, l.AltParents...), func(addr string) (bool, error) {
		samples := 0
		for _, cc := range s.active {
			samples += cc.samples
		}
		h := hello{ID: l.ID, NumSamples: samples, Partial: true}
		answered, err := joinParent(rc, addr, fmt.Sprintf("leaf %d", l.ID), h, &rootToken, func(w welcome) (participant, error) {
			if !w.Partial {
				return nil, errFatal{fmt.Errorf(
					"transport: coordinator at %s did not confirm the partial protocol (not a tree parent)", addr)}
			}
			return s, nil
		})
		return answered > 0, err
	})
	if err == nil {
		err = s.sendDone()
	}
	if err != nil {
		return nil, err
	}
	return s.core.Global, nil
}

// take, answer and done make a tree node's session the participant of its
// session with the parent. The parent's broadcast is this round's center,
// decoded over the previous round's global; the answer is the round's
// partial.
func (s *session) take() []float64 { return s.core.Global }

func (s *session) answer(rd wire.Round2) ([]byte, error) {
	// The durable announce passes through so shard clients bound their
	// rollback captures against the root's snapshots.
	s.core.Global, s.durable = rd.Params, rd.Durable
	s.treeFrac, s.treeSeed, s.sketchCap = rd.SampleFrac, rd.SampleSeed, rd.SketchCap
	if err := s.runRound(rd.Round); err != nil {
		// Unrecoverable round failure (no valid contribution, local
		// coverage floor, ...): the node leaves the tree and lets the
		// parent's coverage accounting decide.
		return nil, errFatal{err}
	}
	s.tx = wire.AppendPartial2Frame(s.tx[:0], s.partial)
	return s.tx, nil
}

func (s *session) done(int, bool) {}
