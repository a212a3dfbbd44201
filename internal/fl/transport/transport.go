// Package transport runs the FedAvg protocol of internal/fl over TCP, so
// clients and the aggregation server can live in separate processes (or
// machines). The in-process engine remains the default for experiments;
// this package demonstrates and tests the distributed deployment path on
// the loopback interface.
//
// Protocol (synchronous, one stream per client). A gob handshake, then
// internal/fl/wire frames in both directions:
//
//	client → server: hello{ID, NumSamples, Token, Codec, Compress, TopKFrac, Partial}
//	server → client: welcome{Token, NextRound, Resumed, Codec, Compress, TopKFrac, Partial}
//	repeat for each round:
//	    server → client: MsgRound2 frame
//	    client → server: MsgUpdate frame (possibly top-k/quantized delta),
//	                     or MsgPartial2 from a child aggregator
//	server → client: MsgDone frame
//
// Handshake. The hello must offer Codec "binary"; any other hello is
// refused. The hello may also offer a compression mode, which the welcome
// echoes.
// Compressed updates are deltas against the broadcast global with
// client-side error feedback: the client accumulates what each lossy
// round dropped and folds it into the next round's delta, so the
// federation converges to the dense behavior; the residual rides in the
// rollback captures, keeping kill→restart→resume bit-identical under
// compression.
//
// Restart recovery. A coordinator given a checkpoint.Manager mints a
// session token, writes durable snapshots at the configured cadence, and
// announces the last durable round in every round message. Clients retain
// an in-memory capture of their local state for every round the server has
// not yet made durable. When the coordinator process dies and restarts
// from its snapshot, reconnecting clients present the session token, learn
// the resume round from the welcome, roll their local state back to the
// matching capture, and the federation continues bit-identically to an
// uninterrupted run. RunClientRetry rides out the outage with its existing
// backoff.
//
// Fault tolerance. With MinQuorum left at zero the coordinator is
// fail-stop: the first client error aborts the federation (the legacy
// behavior). Setting MinQuorum > 0 turns on quorum-based partial
// aggregation: clients that miss the RoundTimeout deadline, drop their
// connection, or send invalid updates (NaN/Inf/size mismatch) are removed
// from the roster and the round aggregates over the survivors, erroring
// only when fewer than MinQuorum valid updates remain. AcceptWindow bounds
// the initial roster wait so a federation can start with a partial roster
// of at least MinQuorum clients. Every inbound message is byte-bounded
// against the expected model size, so a misbehaving peer cannot make the
// coordinator allocate unbounded memory.
package transport

import (
	"bufio"
	"cmp"
	crand "crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/rng"
	"github.com/cip-fl/cip/internal/telemetry"
)

type hello struct {
	ID         int
	NumSamples int
	// Token is the session token from a previous connection; empty on a
	// client's first contact. A coordinator resumed from a snapshot uses it
	// to recognize returning participants.
	Token string
	// Codec must be "binary" (wire.CodecBinary); the coordinator refuses
	// any other hello.
	Codec string
	// Compress offers an update-compression mode (compress.ParseMode
	// names).
	Compress string
	// TopKFrac is the offered top-k fraction for sparse modes (0 means
	// the default).
	TopKFrac float64
	// Partial offers the hierarchical partial-aggregation protocol: the
	// peer is a child aggregator that answers each round frame with a
	// MsgPartial2 (pre-division weighted sums) instead of a MsgUpdate. A
	// coordinator that does not accept partials answers with a welcome
	// that lacks the confirmation, so a leaf dialing a non-root fails
	// loudly instead of being silently treated as a plain client.
	Partial bool
}

// welcome is the coordinator's response to a valid hello.
type welcome struct {
	// Token identifies this federation session across coordinator
	// restarts; empty when the coordinator is not checkpointing.
	Token string
	// NextRound is the first round the coordinator will run with this
	// client — 0 on a fresh federation, the resume round after a restart.
	NextRound int
	// Resumed reports whether the coordinator restored from a snapshot.
	Resumed bool
	// Codec is always "binary"; a peer that leaves it empty predates the
	// frame protocol and is refused by the client.
	Codec string
	// Compress and TopKFrac echo the accepted compression config (empty
	// mode when the session is uncompressed).
	Compress string
	TopKFrac float64
	// Partial confirms the partial-aggregation protocol: this coordinator
	// is a tree parent that will read MsgPartial2 answers from the peer.
	Partial bool
}

// checkCodec validates a Coordinator or RetryConfig Codec field: the
// binary frames are the only protocol, spelled "binary" or left empty.
func checkCodec(codec string) error {
	if codec != "" && codec != wire.CodecBinary {
		return fmt.Errorf("transport: unsupported codec %q (binary frames are the only protocol)", codec)
	}
	return nil
}

// maxHelloBytes bounds the gob-encoded size of the handshake message; a
// hello is two ints, so 4 KiB is generous.
const maxHelloBytes = 4 << 10

// errMsgTooLarge is surfaced by budgetReader when a peer's message exceeds
// the size bound derived from the model.
var errMsgTooLarge = errors.New("transport: message exceeds size bound")

// budgetReader enforces a per-message byte allowance on a connection: the
// coordinator refreshes the allowance before each expected message (the
// hello, then each frame), so a misbehaving peer cannot stream an
// arbitrarily large value into a decoder. The optional bytes counter feeds
// transport_decode_bytes_total.
type budgetReader struct {
	r     io.Reader
	n     int64
	bytes *telemetry.Counter
	// tally, when non-nil, accumulates received bytes atomically for the
	// coordinator's per-round byte accounting (independent of telemetry).
	tally *uint64
}

func (b *budgetReader) allow(n int64) { b.n = n }

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, errMsgTooLarge
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	b.bytes.Add(uint64(n))
	if b.tally != nil {
		atomic.AddUint64(b.tally, uint64(n))
	}
	return n, err
}

// countWriter mirrors budgetReader on the outbound side: every byte the
// coordinator sends a client is counted into telemetry and the per-round
// tally.
type countWriter struct {
	w     io.Writer
	bytes *telemetry.Counter
	tally *uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.bytes.Add(uint64(n))
	if c.tally != nil {
		atomic.AddUint64(c.tally, uint64(n))
	}
	return n, err
}

// Coordinator is the server side of the wire protocol.
type Coordinator struct {
	// NumClients is how many client connections to wait for before round 0.
	NumClients int
	// Rounds is the number of communication rounds to run.
	Rounds int
	// Initial is the initial global parameter vector.
	Initial []float64
	// Observers receive the same per-round view as in-process observers;
	// observers implementing fl.FailureObserver are additionally told which
	// clients were dropped each round.
	Observers []fl.RoundObserver

	// MinQuorum, when > 0, enables fault-tolerant rounds: it is the
	// minimum number of connected clients needed to start and the minimum
	// number of valid updates a round must produce. 0 keeps the legacy
	// fail-stop behavior (all NumClients must stay healthy).
	MinQuorum int
	// RoundTimeout bounds each client's per-round exchange — sending the
	// global parameters, local training, and receiving the update — via
	// connection read/write deadlines. 0 disables deadlines. Stragglers
	// that miss the deadline are dropped from the roster (fault-tolerant
	// mode) or abort the federation (fail-stop mode).
	RoundTimeout time.Duration
	// AcceptWindow, when > 0, bounds how long ListenAndRun waits for the
	// full NumClients roster; when the window closes the federation starts
	// anyway as long as at least MinQuorum clients are connected.
	AcceptWindow time.Duration
	// Codec may be "binary" or empty; both mean the internal/fl/wire
	// frames, the only protocol. Any other value is a configuration error.
	Codec string
	// MaxUpdateNorm, when > 0, rejects updates whose L2 norm exceeds it
	// (counted as validation rejections). 0 disables the bound.
	MaxUpdateNorm float64
	// Robust, when non-nil, replaces the sample-weighted FedAvg mean with
	// a Byzantine-resilient rule (internal/fl/robust). On a flat
	// coordinator, when the rule trims, the post-trim contributor count is
	// checked against MinQuorum (fl.ErrQuorumAfterTrim). A tree root does
	// not check it: its MinQuorum counts child aggregators, and each
	// child's quorum was met in its own subtree.
	Robust robust.Aggregator
	// Reputation, when non-nil, scores per-client anomaly evidence and
	// enforces quarantine on the wire: quarantined clients receive no
	// round message (their connection stays open until Done) and
	// contribute nothing to the aggregate. The tracker's state is
	// persisted in the coordinator snapshot, so a restart does not
	// amnesty an attacker.
	Reputation *robust.Reputation

	// MaxInflightUpdates bounds how many client exchanges a round admits
	// at once (0 means 64). Each admitted exchange holds at most one
	// decoded update, folded and released in client-ID order, so peak
	// aggregator memory is ~MaxInflightUpdates × 8·params regardless of
	// roster size. A round that holds every update until its end — in its
	// column for observers or reputation, or in its row reservoir for
	// Median/TrimmedMean — holds the cohort anyway and admits all of it at
	// once.
	MaxInflightUpdates int
	// SampleFraction, when in (0, 1), samples a per-round cohort of
	// ~fraction × roster from the registered population: weighted without
	// replacement by each client's NumSamples, deterministic given
	// (SampleSeed, round), never below the quorum. Unsampled clients
	// simply receive no round frame and stay blocked on their next read.
	SampleFraction float64
	// SampleSeed seeds the cohort sampler; the per-round stream is
	// derived statelessly from (SampleSeed, round), so a restarted
	// coordinator resumes the same cohort schedule.
	SampleSeed int64
	// AcceptPartials runs the coordinator as an aggregation-tree parent:
	// every roster connection must be a child aggregator (hello with
	// Partial over the binary codec), each round reads one partial per
	// child, and the global advances by the weighted mean of the
	// children's pre-division sums — or, when Robust is set, by the
	// robust rule evaluated over the children's merged row sketches.
	// Requires no observers and no reputation. Children may
	// themselves be AcceptPartials coordinators (interior nodes), making
	// the tree arbitrary-depth.
	AcceptPartials bool
	// CoverageFloor, when in (0, 1], aborts a round whose coverage — the
	// fraction of the planned cohort weight that actually reached the
	// aggregate — falls below it. Degraded subtrees and lost shards pull
	// coverage down; the floor turns "quietly aggregate whatever arrived"
	// into an explicit operator policy. 0 accepts any covered fraction
	// that satisfies MinQuorum.
	CoverageFloor float64
	// TreeSketchCap is the per-subtree row-reservoir capacity (K) for
	// robust tree aggregation: child aggregators retain at most K client
	// rows each round and the root evaluates Robust over the merged
	// reservoir. ≤ 0 defaults to 64 when AcceptPartials && Robust != nil.
	// Results are exact below K total rows and within the documented DKW
	// rank bound above it (robust.SampleRankError).
	TreeSketchCap int
	// AcceptRejoins keeps the listener accepting after the federation
	// starts: newcomers are handshaked, parked, and admitted into the
	// roster at the next round boundary (replacing any dead same-ID
	// entry). This is how a killed-and-restarted leaf re-enters a running
	// tree.
	AcceptRejoins bool
	// ReadBufSize is the per-connection buffered-reader size in bytes (0
	// means bufio's default 4 KiB). Load harnesses with 10⁵ in-process
	// connections shrink it so roster memory stays flat.
	ReadBufSize int

	// Checkpoint, when non-nil, makes the federation durable: a snapshot
	// of the coordinator state is written through it at the
	// CheckpointEvery cadence (and on Stop), and round messages announce
	// which rounds are durable so clients can bound their rollback
	// captures.
	Checkpoint *checkpoint.Manager
	// CheckpointEvery is the snapshot cadence in rounds (≤ 1 means every
	// round). The final round always snapshots.
	CheckpointEvery int
	// Restore, when non-nil, resumes the federation from a snapshot
	// (typically Checkpoint.Load()): the global parameters, round index,
	// failure counters, and session token all continue from it.
	Restore *checkpoint.Snapshot
	// Stop, when signaled (closed), ends the run at the next round
	// boundary: a final snapshot is written (when checkpointing) and
	// ListenAndRun returns fl.ErrStopped.
	Stop <-chan struct{}
	// AfterRound, when non-nil, runs after each completed round and its
	// checkpoint write; an error aborts the run immediately (the
	// crash-injection harness simulates coordinator death through it).
	AfterRound func(round int) error

	// Metrics, when non-nil, receives wire-layer telemetry (accepted
	// conns, decode bytes/failures, straggler drops, rejoins).
	Metrics *Metrics
	// RoundMetrics, when non-nil, receives the same per-round telemetry
	// the in-process engine records (round duration, participating and
	// dropped clients, validation rejections).
	RoundMetrics *fl.Metrics
}

func (c *Coordinator) faultTolerant() bool { return c.MinQuorum > 0 }

// quorum is the effective minimum client/update count per round.
func (c *Coordinator) quorum() int {
	if c.MinQuorum > 0 {
		return c.MinQuorum
	}
	return c.NumClients
}

// updateBudget bounds the encoded size of one client update.
func (c *Coordinator) updateBudget() int64 {
	// A dense update frame is 8 bytes per parameter plus a 20-byte head;
	// 16×params plus slack admits any honest update with a wide margin.
	return 64<<10 + 16*int64(len(c.Initial))
}

// partialBudget is the per-partial receive allowance: the update budget
// widened by the worst-case size of a sketch at the distributed capacity
// (K keys at 8 bytes plus K rows of 8·params each).
func (c *Coordinator) partialBudget(sketchCap int) int64 {
	b := c.updateBudget()
	if sketchCap > 0 {
		b += int64(sketchCap)*8*int64(len(c.Initial)+1) + 1024
	}
	return b
}

// treeSketchCap is the row-reservoir capacity this parent distributes to
// its children: the configured TreeSketchCap, defaulting to 64 when a
// robust rule needs rows at all, and 0 (no sketches) for mean-family
// trees.
func (c *Coordinator) treeSketchCap() int {
	if !c.AcceptPartials {
		return 0
	}
	if c.TreeSketchCap > 0 {
		return c.TreeSketchCap
	}
	if c.Robust != nil {
		return 64
	}
	return 0
}

type clientConn struct {
	id      int
	samples int
	lim     *budgetReader
	// fr reads the connection's frames through the one buffered reader
	// over lim that the gob handshake also read through — raw reads on lim
	// would miss any bytes the hello decode read ahead.
	fr   *wire.Reader
	w    *countWriter
	conn net.Conn
	// sketch is what a child aggregator's partial decodes its rows into,
	// refilled by every partial and merged before the next one is read.
	sketch robust.Sketch
	// cfg is the accepted compression config (Mode None when
	// uncompressed).
	cfg compress.Config
	// partial marks a child-aggregator session: rounds exchange
	// MsgPartial2 frames instead of updates.
	partial bool
	// hadToken records whether the hello carried a session token (feeds
	// the rejoin counter on resumed federations).
	hadToken bool
}

// decodeUpdate is the byte-budgeted inbound path for one client update:
// check the frame header against the byte budget, take a len(global)-long
// slot once the frame has arrived, decode the payload straight off the
// connection into it (a dense body streamed in, a compressed one read into
// body — its window slot's bytes — and densified against the broadcast
// global, which validates the sparse indices) — it becomes the update's
// Params, the caller's to release — then stamp the authoritative client ID
// and validate. Hostile bytes can only produce an error: declared lengths
// meet the budget and the model before anything is read or allocated for
// them, and the wire decoders run under a panic guard (fuzzed by
// FuzzDecodeUpdate, FuzzDecodeFrame and FuzzDecodeUpdateStream).
func (cc *clientConn) decodeUpdate(rc *roundCtx, body *[]byte) (u fl.Update, mode compress.Mode, err error) {
	cc.lim.allow(wire.HeaderLen + rc.budget)
	typ, mode, size, err := cc.fr.Header(int(rc.budget))
	if err != nil {
		return fl.Update{}, compress.None, err
	}
	if typ != wire.MsgUpdate {
		return fl.Update{}, mode, errInvalid{fmt.Errorf("wire: expected update frame, got type %d", typ)}
	}
	// A client may always fall back to an uncompressed update (mode None)
	// — e.g. for a final fine-grained round — but cannot unilaterally
	// switch to a mode the handshake did not accept.
	if mode != cc.cfg.Mode && mode != compress.None {
		return fl.Update{}, mode, errInvalid{fmt.Errorf(
			"wire: client %d sent mode %s, negotiated %s", cc.id, mode, cc.cfg.Mode)}
	}
	dst := rc.slots.get(len(rc.global))
	defer func() {
		if err != nil {
			rc.slots.put(dst)
		}
	}()
	if u, err = cc.fr.Update(mode, size, dst, body); err != nil {
		return fl.Update{}, mode, err
	}
	u.ClientID = cc.id
	if u, err = fl.DensifyInto(dst, u, rc.global); err != nil {
		return fl.Update{}, mode, errInvalid{err}
	}
	if err = fl.ValidateUpdateBounded(u, len(rc.global), rc.maxNorm); err != nil {
		return fl.Update{}, mode, errInvalid{err}
	}
	return u, mode, nil
}

// roundCtx carries one round's shared exchange parameters. bcast is the
// pre-encoded round frame shared read-only by every connection — the
// per-round encoding cost is paid once, not per client. slots is the
// session's free list of vectors updates and partial sums decode into.
type roundCtx struct {
	round   int
	global  []float64
	bcast   []byte
	slots   *slotPool
	timeout time.Duration
	budget  int64
	maxNorm float64
	met     *Metrics
}

// exchange runs one round against one roster member: broadcast the
// round's shared frame, then read the answer — a client's (possibly
// compressed, read into body) update into u, or a child aggregator's
// MsgPartial2 into p — decoded into window slots that become the folder's
// to release, and validated. RoundTimeout (when set) covers the whole
// exchange through connection deadlines.
func (cc *clientConn) exchange(rc *roundCtx, body *[]byte, u *fl.Update, p *fl.Partial) (err error) {
	if rc.timeout > 0 {
		cc.conn.SetDeadline(time.Now().Add(rc.timeout)) //nolint:errcheck
		defer cc.conn.SetDeadline(time.Time{})          //nolint:errcheck
	}
	if _, err := cc.w.Write(rc.bcast); err != nil {
		return fmt.Errorf("transport: sending round %d to client %d: %w", rc.round, cc.id, err)
	}
	mode, what := compress.None, "update from client"
	if cc.partial {
		*p, err = cc.readPartial(rc)
		what = "partial from leaf"
	} else {
		*u, mode, err = cc.decodeUpdate(rc, body)
	}
	switch {
	case invalid(err):
		return fmt.Errorf("transport: round %d: %w", rc.round, err)
	case err != nil:
		rc.met.DecodeFailures.Inc()
		return fmt.Errorf("transport: reading %s %d: %w", what, cc.id, err)
	case mode != compress.None:
		rc.met.CompressedUpdates.Inc()
	}
	return nil
}

// readPartial streams a child's MsgPartial2 into slots — the sums into a
// window slot, its sketch into the connection's sketch with rows in held
// slots — and validates it (round match, weight/count positivity,
// finiteness, implied-mean norm bound).
func (cc *clientConn) readPartial(rc *roundCtx) (p fl.Partial, err error) {
	cc.lim.allow(wire.HeaderLen + rc.budget)
	typ, _, size, err := cc.fr.Header(int(rc.budget))
	if err != nil {
		return fl.Partial{}, err
	}
	if typ != wire.MsgPartial2 {
		return fl.Partial{}, errInvalid{fmt.Errorf("wire: expected partial frame, got type %d", typ)}
	}
	dst := rc.slots.get(len(rc.global))
	defer func() {
		if err != nil {
			rc.slots.put(dst)
		}
	}()
	if p, err = cc.fr.Partial(size, dst, &cc.sketch, func() []float64 { return rc.slots.row(len(rc.global)) }); err != nil {
		return fl.Partial{}, err
	}
	// The leaf ID is stamped from the authenticated connection, so one
	// leaf cannot impersonate another in failure accounting.
	if p.LeafID = cc.id; p.Round != rc.round {
		return fl.Partial{}, errInvalid{fmt.Errorf("fl: leaf %d sent a partial for round %d", cc.id, p.Round)}
	}
	if err = fl.ValidatePartial(p, len(rc.global), rc.maxNorm); err != nil {
		return fl.Partial{}, errInvalid{err}
	}
	return p, nil
}

// errInvalid tags validation failures so failureReason can classify them.
type errInvalid struct{ err error }

func (e errInvalid) Error() string { return e.err.Error() }
func (e errInvalid) Unwrap() error { return e.err }

// invalid reports whether err blames the peer's bytes — a validation
// failure, or a wire decoder's verdict (over budget, inconsistent or
// truncated payload) — rather than the connection: a body cut mid-stream
// is an I/O error.
func invalid(err error) bool {
	if err == nil {
		return false // before errors.As, whose target escapes to the heap
	}
	return errors.As(err, &errInvalid{}) || errors.Is(err, wire.ErrBudget) ||
		errors.Is(err, wire.ErrPayload) || errors.Is(err, wire.ErrTruncated)
}

func failureReason(err error) fl.FailureReason {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fl.FailTimeout
	}
	if invalid(err) || errors.Is(err, errMsgTooLarge) {
		return fl.FailInvalid
	}
	return fl.FailTransport
}

// handshake performs the server side of one connection's gob handshake:
// read the hello under the byte budget, enforce the session token and the
// binary offer, and settle compression/partial. A nonsense compression
// offer is an error (a bad hello), not a silent downgrade. It deliberately
// does NOT send the welcome — rejoin admission defers the welcome to a
// round boundary, where the promised NextRound is stable.
func (c *Coordinator) handshake(conn net.Conn, token string, rxTally, txTally *uint64) (*clientConn, error) {
	lim := &budgetReader{r: conn, bytes: c.Metrics.or().DecodeBytes, tally: rxTally}
	cw := &countWriter{w: conn, bytes: c.Metrics.or().TxBytes, tally: txTally}
	br := bufio.NewReaderSize(lim, cmp.Or(max(c.ReadBufSize, 0), 4096)) // 4096: bufio's default
	cc := &clientConn{lim: lim, fr: wire.NewReader(br), w: cw, conn: conn}
	lim.allow(maxHelloBytes)
	var h hello
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		c.Metrics.or().DecodeFailures.Inc()
		return nil, fmt.Errorf("transport: reading hello: %w", err)
	}
	if h.Token != "" && h.Token != token {
		// A client from some other (or stale) session; admitting it
		// would silently break resume bit-identity.
		return nil, fmt.Errorf("transport: client %d presented an unknown session token", h.ID)
	}
	if h.Codec != wire.CodecBinary {
		return nil, fmt.Errorf("transport: client %d did not offer the binary codec", h.ID)
	}
	if h.Compress != "" {
		mode, err := compress.ParseMode(h.Compress)
		if err != nil {
			return nil, fmt.Errorf("transport: client %d: %w", h.ID, err)
		}
		cc.cfg = compress.Config{Mode: mode, TopKFrac: h.TopKFrac}.WithDefaults()
	}
	partial := h.Partial
	if partial && !c.AcceptPartials {
		// A leaf dialed a plain coordinator: decline the offer in the
		// welcome; the leaf sees the missing confirmation and bails.
		partial = false
	}
	if c.AcceptPartials && !partial {
		return nil, fmt.Errorf("transport: client %d does not speak the partial protocol this root requires", h.ID)
	}
	cc.id = h.ID
	cc.samples = h.NumSamples
	cc.partial = partial
	cc.hadToken = h.Token != ""
	return cc, nil
}

// sendWelcome specializes the session welcome for one connection — the
// compression and partial-protocol confirmation its handshake settled
// on — and sends it, the one gob message a coordinator writes.
func (cc *clientConn) sendWelcome(w welcome) error {
	w.Codec = wire.CodecBinary
	if cc.cfg.Mode != compress.None {
		w.Compress = cc.cfg.Mode.String()
		w.TopKFrac = cc.cfg.TopKFrac
	}
	w.Partial = cc.partial
	return gob.NewEncoder(cc.w).Encode(w)
}

// acceptClients collects the initial roster, answering each valid hello
// with a welcome carrying the session token, resume round, and the
// settled codec/compression for that client. Any connection accepted
// before an error is closed before returning, so a bad hello from client
// n does not leak clients 1..n-1. rxTally/txTally feed the coordinator's
// per-round byte accounting.
func (c *Coordinator) acceptClients(ln net.Listener, w welcome, rxTally, txTally *uint64) (conns []*clientConn, err error) {
	defer func() {
		if err != nil {
			for _, cc := range conns {
				cc.conn.Close()
			}
		}
	}()
	var deadline time.Time
	if c.AcceptWindow > 0 {
		deadline = time.Now().Add(c.AcceptWindow)
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline) //nolint:errcheck
		}
	}
	seen := make(map[int]bool, c.NumClients)
	for len(conns) < c.NumClients {
		conn, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !deadline.IsZero() {
				if len(conns) >= c.quorum() {
					return conns, nil // start with the partial roster
				}
				return conns, fmt.Errorf("transport: accept window closed with %d of %d clients, need %d",
					len(conns), c.NumClients, c.quorum())
			}
			return conns, fmt.Errorf("transport: accept: %w", err)
		}
		if !deadline.IsZero() {
			conn.SetReadDeadline(deadline) //nolint:errcheck
		}
		cc, herr := c.handshake(conn, w.Token, rxTally, txTally)
		if herr == nil && seen[cc.id] {
			herr = fmt.Errorf("transport: duplicate client id %d", cc.id)
		}
		if herr == nil {
			if werr := cc.sendWelcome(w); werr != nil {
				herr = fmt.Errorf("transport: sending welcome to client %d: %w", cc.id, werr)
			}
		}
		if herr != nil {
			conn.Close()
			if c.faultTolerant() {
				continue // tolerate a bad peer; keep waiting for the rest
			}
			return conns, herr
		}
		if cc.hadToken && w.Resumed {
			c.Metrics.or().Rejoins.Inc()
		}
		seen[cc.id] = true
		conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		conns = append(conns, cc)
		c.Metrics.or().ConnsAccepted.Inc()
	}
	return conns, nil
}

// newToken mints a session token for a durable federation.
func newToken() (string, error) {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("transport: minting session token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// ListenAndRun listens on addr, waits for the client roster, runs the
// configured number of rounds, and returns the final global parameters.
// Passing ":0" style addresses is supported; the bound address is reported
// through the optional ready callback before blocking on accepts.
//
// With a Checkpoint manager attached the run is durable: snapshots land on
// the CheckpointEvery cadence, a Stop signal exits cleanly at the next
// round boundary (final snapshot, fl.ErrStopped), and a coordinator
// constructed with Restore continues a previous session where its last
// snapshot left off.
func (c *Coordinator) ListenAndRun(addr string, ready func(boundAddr string)) ([]float64, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	defer ln.Close()
	return c.RunWithListener(ln, ready)
}

// RetryConfig controls RunClientRetry's dial behavior: attempts and the
// exponential backoff schedule. Each delay is jittered by a factor in
// [1-retryJitter, 1+retryJitter], drawn from a source seeded with the
// participant's own ID, so clients and leaves that lost the same parent
// do not redial in lockstep, and one participant's schedule is
// reproducible.
type RetryConfig struct {
	// MaxAttempts is the total number of connection attempts; values ≤ 1
	// mean a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the delay before the first retry (default 200ms); each
	// further retry doubles it up to maxRetryDelay.
	BaseDelay time.Duration
	// Dial overrides the dialer (fault-injection hook); nil dials TCP.
	Dial func(addr string) (net.Conn, error)
	// Codec may be "binary" or empty; both mean the internal/fl/wire
	// frames, the only protocol. Any other value is a configuration error.
	Codec string
	// Compress offers an update-compression mode (compress.ParseMode
	// names: topk, q8, q16, topk8, topk16); empty sends dense updates.
	Compress string
	// TopKFrac is the top-k fraction offered with sparse modes (0 means
	// the compress package default, 1%).
	TopKFrac float64
	// Stop, when signaled (closed), aborts the client cleanly:
	// RunClientRetry returns ErrClientStopped instead of dialing again,
	// sleeping out a backoff, or blocking on the next round message.
	Stop <-chan struct{}
	// Metrics, when non-nil, counts retry attempts
	// (transport_retry_attempts_total).
	Metrics *Metrics
}

const (
	// maxRetryDelay caps the doubling backoff.
	maxRetryDelay = 5 * time.Second
	// retryJitter is the half-width of the multiplicative jitter band.
	retryJitter = 0.2
)

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.MaxAttempts < 1 {
		rc.MaxAttempts = 1
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 200 * time.Millisecond
	}
	if rc.Dial == nil {
		rc.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return rc
}

// backoff returns the sleep before the attempt-th retry (attempt ≥ 1),
// jittered by one draw from jitter.
func (rc RetryConfig) backoff(attempt int, jitter *rand.Rand) time.Duration {
	d := rc.BaseDelay
	for i := 1; i < attempt && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	return time.Duration(float64(d) * (1 + retryJitter*(jitter.Float64()*2-1)))
}

// ErrClientStopped is returned by RunClientRetry when the client is shut
// down through RetryConfig.Stop. It signals a clean, deliberate exit, not
// a failure.
var ErrClientStopped = errors.New("transport: client stopped")

// errFatal tags session errors no retry can fix (protocol violations,
// training failures, impossible rollbacks).
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// sessionState is what a client carries across reconnects of one
// federation session: the session token, its training position, and
// rollback captures of its local state for every round the coordinator has
// not yet made durable. It answers the coordinator's rounds, with optional
// compressed (error-feedback) updates; the round frame's tree directive is
// for aggregators, and a client ignores it.
type sessionState struct {
	client    fl.Client
	cfg       compress.Config // what the current connection's welcome settled
	token     string
	nextRound int
	joined    bool
	// captures maps completed round r to the client's post-round-r local
	// state; entries at or below the announced durable round are pruned.
	captures map[int][]byte
	// noCapture is set after CaptureState fails once (a client not built
	// for statefulness); further rounds skip the attempt.
	noCapture bool
	// residual is the error-feedback accumulator of a compressed
	// session: everything past lossy rounds dropped, folded into the next
	// round's delta. resCaptures snapshots it per completed round
	// alongside captures, so a rollback restores the residual the resumed
	// round's compression depends on — without it, a resumed federation
	// would diverge from an uninterrupted one. The residual is mutated in
	// place every round, so a capture is always a copy, never an alias;
	// resFree holds the slices of pruned captures for the next ones.
	residual    []float64
	resCaptures map[int][]float64
	resFree     [][]float64
	// bufs is the round's wire storage, held from a round frame's arrival
	// until the update's Write returns; nil while the session waits.
	bufs *roundBufs
}

// roundBufs is one client round's wire storage: the round frame decodes
// into params (what TrainLocal is handed) and the update frame is encoded
// into tx.
type roundBufs struct {
	params []float64
	tx     []byte
}

// idleBufs is the process's free list of client round buffers, in the
// tensor.Workspace acquire/release idiom: a session takes a pair when a
// round frame arrives and gives it back once its update's Write returns.
// The list keeps min(members, 2·peak) pairs in all — members the sessions
// answering rounds, peak the most pairs ever held at once — so each of a
// few in-process sessions finds one however their rounds overlap, while
// 10⁵ load-harness sessions share about twice what those in flight hold.
var idleBufs struct {
	mu                  sync.Mutex
	list                []*roundBufs
	members, held, peak int
}

// bufsKept is how many pairs the list keeps in all; mu is held.
func bufsKept() int { return min(idleBufs.members, 2*idleBufs.peak) }

// joinBufs adds d sessions to those answering rounds (-1 when one stops),
// dropping idle pairs the list no longer keeps.
func joinBufs(d int) {
	idleBufs.mu.Lock()
	defer idleBufs.mu.Unlock()
	idleBufs.members += d
	for n := len(idleBufs.list); n > 0 && idleBufs.held+n > bufsKept(); n-- {
		idleBufs.list[n-1] = nil
		idleBufs.list = idleBufs.list[:n-1]
	}
}

func takeBufs() *roundBufs {
	idleBufs.mu.Lock()
	defer idleBufs.mu.Unlock()
	idleBufs.held++
	idleBufs.peak = max(idleBufs.peak, idleBufs.held)
	if n := len(idleBufs.list); n > 0 {
		b := idleBufs.list[n-1]
		idleBufs.list[n-1] = nil
		idleBufs.list = idleBufs.list[:n-1]
		return b
	}
	return new(roundBufs)
}

// release gives b back; b must not be used afterwards. While the list is
// short of what it keeps, pairs sized like b are made beneath it, so the
// next session to take one gets b itself.
func (b *roundBufs) release() {
	poison(b.params, math.NaN())
	poison(b.tx, 0xFF)
	idleBufs.mu.Lock()
	defer idleBufs.mu.Unlock()
	idleBufs.held--
	for idleBufs.held+len(idleBufs.list)+1 < bufsKept() {
		idleBufs.list = append(idleBufs.list, &roundBufs{make([]float64, len(b.params)), make([]byte, 0, cap(b.tx))})
	}
	if idleBufs.held+len(idleBufs.list) < bufsKept() {
		idleBufs.list = append(idleBufs.list, b)
	}
}

// encode builds the update frame in tx; an encode error leaves tx as it
// was.
func (b *roundBufs) encode(u fl.Update, d *compress.Delta, mode compress.Mode) (frame []byte, err error) {
	if frame, err = wire.AppendUpdateFrame(b.tx[:0], u, d, mode); err == nil {
		b.tx = frame
	}
	return frame, err
}

// RunClientRetry connects a local fl.Client to a coordinator at addr and
// participates until the coordinator signals completion, with dial retry
// and restart recovery (RetryConfig{} makes a single attempt): connection
// attempts that fail before the coordinator has started the federation
// are retried with exponential backoff and jitter, so clients can be
// launched before the server is up. Against a durable coordinator
// (one that issued a session token) mid-federation connection losses are
// also retried: the client reconnects, presents the token, rolls its local
// state back to the coordinator's resume round, and continues — with the
// attempt budget refreshed every time a reconnect makes progress, so a
// long outage is bounded by MaxAttempts of consecutive futile dials, not
// by total dials. Against a non-durable coordinator mid-federation errors
// remain fatal (there is nothing to rejoin).
func RunClientRetry(addr string, client fl.Client, rc RetryConfig) error {
	if err := checkCodec(rc.Codec); err != nil {
		return err
	}
	rc = rc.withDefaults()
	st := &sessionState{client: client, captures: make(map[int][]byte)}
	joinBufs(1)
	defer joinBufs(-1)
	h := hello{ID: client.ID(), NumSamples: client.NumSamples(), Compress: rc.Compress, TopKFrac: rc.TopKFrac}
	return rc.retry(int64(h.ID), []string{addr}, func(addr string) (progressed bool, err error) {
		joinedBefore, roundBefore := st.joined, st.nextRound
		_, err = joinParent(rc, addr, fmt.Sprintf("client %d", h.ID), h, &st.token, func(w welcome) (participant, error) {
			st.cfg = compress.Config{}
			if w.Compress != "" {
				mode, err := compress.ParseMode(w.Compress)
				if err != nil {
					return nil, errFatal{fmt.Errorf("transport: coordinator accepted unknown compression: %w", err)}
				}
				st.cfg = compress.Config{Mode: mode, TopKFrac: w.TopKFrac}.WithDefaults()
			}
			if w.NextRound < st.nextRound {
				// The coordinator lost rounds this client already trained;
				// rewind to the capture matching its resume point.
				if err := rollback(client, st, w.NextRound, st.cfg.Mode != compress.None); err != nil {
					return nil, errFatal{err}
				}
			}
			st.nextRound = w.NextRound
			return st, nil
		})
		if err != nil && st.joined && st.token == "" {
			// Legacy fail-stop session: the coordinator cannot resume, so a
			// mid-federation drop is final.
			err = errFatal{err}
		}
		return st.joined != joinedBefore || st.nextRound > roundBefore, err
	})
}

// retry runs session against parents[0] until one ends cleanly, is stopped
// or fails fatally, with backoff between attempts, jittered from a source
// seeded with seed. A session that made progress refreshes the attempt
// budget, so a long outage is bounded by MaxAttempts consecutive futile
// dials; once one parent's budget is spent, the next address gets a fresh
// budget and backoff ramp.
func (rc RetryConfig) retry(seed int64, parents []string, session func(addr string) (progressed bool, err error)) error {
	jitter, _ := rng.New(seed)
	var err error
	for attempt, parent := 1, 0; attempt <= rc.MaxAttempts; attempt++ {
		if attempt > 1 { // a retry is counted and sleeps out its backoff first
			rc.Metrics.or().RetryAttempts.Inc()
			t := time.NewTimer(rc.backoff(attempt-1, jitter))
			select {
			case <-t.C:
			case <-rc.Stop:
				t.Stop()
			}
		}
		if stopped(rc.Stop) {
			return ErrClientStopped
		}
		var progressed bool
		progressed, err = session(parents[parent])
		if err == nil || errors.Is(err, ErrClientStopped) || errors.As(err, &errFatal{}) {
			return err
		}
		if progressed {
			attempt = 1
		}
		if attempt == rc.MaxAttempts && parent+1 < len(parents) {
			parent, attempt = parent+1, 0
		}
	}
	return err
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// watchStop makes a Stop signal unblock a session waiting in a read on
// conn, by expiring the read deadline. stopErr turns the read error that
// follows into ErrClientStopped; unwatch ends the watch.
func watchStop(conn net.Conn, stop <-chan struct{}) (stopErr func(error) error, unwatch func()) {
	done := make(chan struct{})
	if stop != nil {
		go func() {
			select {
			case <-stop:
				conn.SetReadDeadline(time.Now()) //nolint:errcheck
			case <-done:
			}
		}()
	}
	return func(err error) error {
		if stopped(stop) {
			return ErrClientStopped
		}
		return err
	}, func() { close(done) }
}

// clientFrameBudget bounds one inbound frame on the client side. Clients
// do not know the model size before the first round frame arrives, so the
// bound is a generous constant rather than model-derived.
const clientFrameBudget = 1 << 30

// joinParent runs one session with the parent at addr: dial, hello and
// welcome — h carries *token, which the first welcome sets and every later
// one must repeat — then the rounds of the participant node builds from
// the welcome, until MsgDone. answered counts the rounds it answered.
func joinParent(rc RetryConfig, addr, who string, h hello, token *string,
	node func(welcome) (participant, error)) (answered int, err error) {
	conn, err := rc.Dial(addr)
	if err != nil {
		return 0, fmt.Errorf("transport: %s dialing parent %s: %w", who, addr, err)
	}
	defer conn.Close()
	stopErr, unwatch := watchStop(conn, rc.Stop)
	defer unwatch()

	// The welcome decode may read ahead; the frame reader must read from
	// the same buffer or it would miss the first round frame, which can
	// arrive right behind the welcome.
	br := bufio.NewReader(conn)
	h.Codec, h.Token = wire.CodecBinary, *token
	if err := gob.NewEncoder(conn).Encode(h); err != nil {
		return 0, stopErr(fmt.Errorf("transport: %s sending hello: %w", who, err))
	}
	var w welcome
	switch err := gob.NewDecoder(br).Decode(&w); {
	case err != nil:
		return 0, stopErr(fmt.Errorf("transport: %s reading welcome: %w", who, err))
	case w.Codec != wire.CodecBinary:
		return 0, errFatal{errors.New("transport: parent does not speak the binary frame protocol")}
	case *token != "" && w.Token != *token:
		return 0, errFatal{errors.New("transport: parent session token changed mid-federation")}
	}
	*token = w.Token
	p, err := node(w)
	if err != nil {
		return 0, err
	}
	return answerRounds(conn, wire.NewReader(br), who, p, stopErr)
}

// participant is the node side of answerRounds: take supplies the storage
// a round frame decodes into once its header has arrived, answer computes
// the reply frame, and done runs once per take, after the reply's Write
// returns (sent) or the round fails, to give back what the round took.
type participant interface {
	take() []float64
	answer(rd wire.Round2) ([]byte, error)
	done(round int, sent bool)
}

// answerRounds is the one round loop of everything that answers a parent:
// a client session and a tree node's session with its parent. Each frame:
// the header; MsgDone ends the loop with a nil error; a round frame is
// decoded into the storage p takes, p computes the answer, and the answer
// goes out in one Write — a connection cut mid-call tears the frame on the
// wire, which the parent's byte-budgeted reader discards whole (the
// torn-frame chaos tests depend on this). answered counts the rounds sent.
func answerRounds(conn net.Conn, fr *wire.Reader, who string, p participant,
	stopErr func(error) error) (answered int, err error) {
	for {
		typ, _, size, err := fr.Header(clientFrameBudget)
		switch {
		case err != nil:
			return answered, stopErr(fmt.Errorf("transport: %s reading round frame: %w", who, err))
		case typ == wire.MsgDone:
			return answered, nil
		case typ != wire.MsgRound2:
			return answered, errFatal{fmt.Errorf("transport: %s: unexpected frame type %d mid-federation", who, typ)}
		}
		rd, err := fr.Round(size, p.take())
		switch {
		case invalid(err):
			err = errFatal{fmt.Errorf("transport: %s decoding round frame: %w", who, err)}
		case err != nil:
			err = stopErr(fmt.Errorf("transport: %s reading round frame: %w", who, err))
		default:
			var frame []byte
			if frame, err = p.answer(rd); err == nil {
				if _, werr := conn.Write(frame); werr != nil {
					err = stopErr(fmt.Errorf("transport: %s sending its answer: %w", who, werr))
				}
			}
		}
		p.done(rd.Round, err == nil)
		if err != nil {
			return answered, err
		}
		answered++
	}
}

func (st *sessionState) take() []float64 {
	st.joined = true
	st.bufs = takeBufs()
	return st.bufs.params
}

func (st *sessionState) answer(rd wire.Round2) ([]byte, error) {
	st.bufs.params = rd.Params
	pruneCaptures(st, rd.Durable)
	u, err := st.client.TrainLocal(rd.Round, rd.Params)
	if err != nil {
		return nil, errFatal{fmt.Errorf("transport: local training round %d: %w", rd.Round, err)}
	}
	return st.updateFrame(u, rd.Params)
}

func (st *sessionState) done(round int, sent bool) {
	st.bufs.release()
	st.bufs = nil
	if !sent {
		return
	}
	st.nextRound = round + 1
	var resid []float64
	if st.cfg.Mode != compress.None {
		resid = st.residual
	}
	capture(st.client, st, round, resid)
}

// updateFrame encodes one update frame into the round's tx. Uncompressed
// sessions send the raw dense parameters; compressed ones send the delta
// against the broadcast global with the error-feedback residual folded in,
// and keep what the lossy codec dropped as the new residual.
func (st *sessionState) updateFrame(u fl.Update, broadcast []float64) ([]byte, error) {
	var d *compress.Delta
	if st.cfg.Mode != compress.None {
		if len(u.Params) != len(broadcast) {
			return nil, errFatal{fmt.Errorf("transport: client %d produced %d params for a %d-param model",
				u.ClientID, len(u.Params), len(broadcast))}
		}
		// The residual advances here, in place, before the frame is
		// written; a send failure after this point is fine — the round
		// will be replayed from a rollback capture, which restores it.
		var err error
		d, st.residual, err = st.cfg.CompressInPlace(u.Params, broadcast, st.residual)
		if err != nil {
			return nil, errFatal{fmt.Errorf("transport: compressing update: %w", err)}
		}
	}
	frame, err := st.bufs.encode(u, d, st.cfg.Mode)
	if err != nil {
		return nil, errFatal{fmt.Errorf("transport: encoding update: %w", err)}
	}
	return frame, nil
}

// pruneCaptures drops rollback captures (state and residual) for rounds
// the coordinator has made durable — it can never rewind past them.
func pruneCaptures(st *sessionState, durable int) {
	for r := range st.captures {
		if r < durable {
			delete(st.captures, r)
		}
	}
	for r, res := range st.resCaptures {
		if r < durable {
			st.resFree = append(st.resFree, res)
			delete(st.resCaptures, r)
		}
	}
}

// capture records the client's post-round state for possible rollback,
// plus the compression residual as of the round's send when the session
// is compressed (resid non-nil). Only durable sessions need it, and only
// stateful clients can provide it; everything else degrades silently
// (rollback will then refuse).
func capture(client fl.Client, st *sessionState, round int, resid []float64) {
	if st.token == "" || st.noCapture {
		return
	}
	sc, ok := client.(fl.StatefulClient)
	if !ok {
		st.noCapture = true
		return
	}
	blob, err := sc.CaptureState()
	if err != nil {
		st.noCapture = true
		return
	}
	st.captures[round] = blob
	if resid != nil {
		if st.resCaptures == nil {
			st.resCaptures = make(map[int][]float64)
		}
		// A replayed round overwrites its own slot; otherwise recycle.
		buf := st.resCaptures[round]
		if n := len(st.resFree); buf == nil && n > 0 {
			buf, st.resFree = st.resFree[n-1], st.resFree[:n-1]
		}
		st.resCaptures[round] = append(buf[:0], resid...)
	}
}

// rollback rewinds the client to its post-round-(nextRound-1) capture —
// including, on compressed sessions (needResidual), the error-feedback
// residual as it stood after that round's send.
func rollback(client fl.Client, st *sessionState, nextRound int, needResidual bool) error {
	if nextRound == st.nextRound {
		return nil
	}
	sc, ok := client.(fl.StatefulClient)
	if !ok || st.noCapture {
		return fmt.Errorf("transport: coordinator resumed at round %d but client %d is at %d and cannot roll back",
			nextRound, client.ID(), st.nextRound)
	}
	blob, ok := st.captures[nextRound-1]
	if !ok {
		return fmt.Errorf("transport: coordinator resumed at round %d but client %d holds no capture for round %d",
			nextRound, client.ID(), nextRound-1)
	}
	if needResidual {
		res, ok := st.resCaptures[nextRound-1]
		if !ok {
			return fmt.Errorf("transport: coordinator resumed at round %d but client %d holds no residual capture for round %d",
				nextRound, client.ID(), nextRound-1)
		}
		st.residual = append(st.residual[:0], res...)
	}
	if err := sc.RestoreState(blob); err != nil {
		return fmt.Errorf("transport: rolling client %d back to round %d: %w", client.ID(), nextRound-1, err)
	}
	return nil
}
