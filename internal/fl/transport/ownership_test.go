package transport

// Buffer ownership on the dense wire path. Every dense vector a round
// moves lives in storage owned by what outlives the round — the client
// session's params and tx frame, the coordinator session's window slots,
// broadcast frame and accumulator/global pair — so a steady-state round
// allocates nothing the size of the model, and nothing that is retained
// past a round (observer records, reputation evidence, sketch rows, the
// returned global) may alias a buffer that is recycled. These tests hold
// both halves: the allocation bound, and — with every recycled buffer
// overwritten with NaN the moment it is released — bit-identical globals
// on every round path.

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/telemetry"
)

// runClients joins clients to addr, client i offering compressFor(i)
// (nil: none), and returns a wait func that fails the test on any client
// error.
func runClients(t *testing.T, addr string, clients []fl.Client, compressFor func(i int) string) func() {
	t.Helper()
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		rc := RetryConfig{MaxAttempts: 1}
		if compressFor != nil {
			rc.Compress, rc.TopKFrac = compressFor(i), 0.25
		}
		wg.Add(1)
		go func(i int, c fl.Client) {
			defer wg.Done()
			errs[i] = RunClientRetry(addr, c, rc)
		}(i, c)
	}
	return func() {
		t.Helper()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
	}
}

// TestFlatRoundSteadyStateAllocation: a real loopback binary federation
// at the benchmark's model size allocates, after three warm rounds, next
// to nothing per update — and over its whole life only what two clients'
// worth of owned buffers explain, not a default window's worth of slots.
// That holds for the mean fold and for every configuration that keeps the
// round's update column (a sort-based rule, an observer, a reputation
// tracker): the kept slots go back once the round's last reader is done.
func TestFlatRoundSteadyStateAllocation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Coordinator)
	}{
		{"mean", func(*Coordinator) {}},
		{"median", func(c *Coordinator) { c.Robust = robust.Median{} }},
		{"history", func(c *Coordinator) { c.Observers = []fl.RoundObserver{&fl.HistoryRecorder{}} }},
		{"reputation", func(c *Coordinator) { c.Reputation = robust.NewReputation(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) { flatRoundAllocation(t, tc.mut) })
	}
}

func flatRoundAllocation(t *testing.T, mut func(*Coordinator)) {
	const (
		dim     = 719364
		nClient = 2
		warm    = 3
		rounds  = warm + 5
	)
	initial := make([]float64, dim)
	for i := range initial {
		initial[i] = float64(i%97) * 1e-3
	}
	clients := make([]fl.Client, nClient)
	for i := range clients {
		clients[i] = &dimClient{id: i, out: make([]float64, dim)}
	}
	var start, before, after runtime.MemStats
	coord := &Coordinator{
		NumClients: nClient, Rounds: rounds, Initial: initial,
		AfterRound: func(round int) error {
			switch round {
			case warm - 1:
				runtime.ReadMemStats(&before)
			case rounds - 1:
				runtime.ReadMemStats(&after)
			}
			return nil
		},
	}
	mut(coord)
	runtime.GC()
	runtime.ReadMemStats(&start)
	addr, wait := startCoordinator(t, coord)
	waitClients := runClients(t, addr, clients, nil)
	if _, err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	waitClients()

	updates := uint64((rounds - warm) * nClient)
	if b := (after.TotalAlloc - before.TotalAlloc) / updates; b > 64<<10 {
		t.Errorf("a steady-state dense update allocates %d B, want ≤ 64 KiB (the update itself is %d B)", b, 8*dim)
	}
	if m := (after.Mallocs - before.Mallocs) / updates; m > 40 {
		t.Errorf("a steady-state dense update costs %d mallocs, want ≤ 40", m)
	}
	// Owned buffers, all allocated once: per client params + tx frame, at
	// the coordinator global + accumulator + broadcast frame + one slot per
	// client. 16 vectors' worth is generous for that and far below a
	// defaultInflight-deep window of slots.
	if total := after.TotalAlloc - start.TotalAlloc; total > 16*8*dim {
		t.Errorf("the whole federation allocated %d B, want ≤ %d: owned buffers are sized by the two clients in flight", total, 16*8*dim)
	}
}

// TestTreeRoundSteadyStateAllocation: a real loopback depth-2 median tree
// (root ← 2 leaves ← 2 dense clients each) allocates, after warm-up, at
// most 256 KiB per round: a leaf's sketch rows are its update slots, the
// root streams child partials into pooled sums and rows, and every one of
// them goes back, as does the global the median's output supersedes. That
// holds with every row kept and, at a reservoir of one row, with each leaf
// evicting or refusing a row and the root dropping one a round.
func TestTreeRoundSteadyStateAllocation(t *testing.T) {
	for _, sketchCap := range []int{0, 1} {
		t.Run(fmt.Sprintf("sketch-cap-%d", sketchCap), func(t *testing.T) { treeRoundAllocation(t, sketchCap) })
	}
}

func treeRoundAllocation(t *testing.T, sketchCap int) {
	const (
		dim             = 1 << 17
		leaves, perLeaf = 2, 2
		warm            = 3
		rounds          = warm + 5
	)
	initial := make([]float64, dim)
	for i := range initial {
		initial[i] = float64(i%89) * 1e-3
	}
	var before, after runtime.MemStats
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds, Initial: initial,
		AcceptPartials: true, Robust: robust.Median{}, TreeSketchCap: sketchCap,
		AfterRound: func(round int) error {
			switch round {
			case warm - 1:
				runtime.ReadMemStats(&before)
			case rounds - 1:
				runtime.ReadMemStats(&after)
			}
			return nil
		},
	}
	rootAddr, rootWait := startCoordinator(t, root)
	var leafWaits []func() error
	var clientWaits []func()
	for l := 0; l < leaves; l++ {
		addr, wait := startNode(t, &Leaf{ID: l, Root: rootAddr, Local: Coordinator{NumClients: perLeaf, Initial: initial}})
		leafWaits = append(leafWaits, wait)
		shard := make([]fl.Client, perLeaf)
		for i := range shard {
			shard[i] = &dimClient{id: perLeaf*l + i, out: make([]float64, dim)}
		}
		clientWaits = append(clientWaits, runClients(t, addr, shard, nil))
	}
	if _, err := rootWait(); err != nil {
		t.Fatalf("root: %v", err)
	}
	for l, wait := range leafWaits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
		clientWaits[l]()
	}
	b := (after.TotalAlloc - before.TotalAlloc) / (rounds - warm)
	t.Logf("a steady-state tree round allocates %d B", b)
	if b > 256<<10 {
		t.Errorf("a steady-state tree round allocates %d B, want ≤ 256 KiB (a model vector is %d B)", b, 8*dim)
	}
}

// dimClient is the cheapest honest client at a realistic model size:
// global plus a per-client constant, into a reused vector.
type dimClient struct {
	id  int
	out []float64
}

func (c *dimClient) ID() int         { return c.id }
func (c *dimClient) NumSamples() int { return 10 * (c.id + 1) }
func (c *dimClient) TrainLocal(_ int, global []float64) (fl.Update, error) {
	d := float64(c.id+1) * 1e-3
	for i, g := range global {
		c.out[i] = g + d
	}
	return fl.Update{Params: c.out, NumSamples: c.NumSamples(), TrainLoss: 1}, nil
}

// poisonScenario runs one federation shape end to end and returns the
// root's final global.
type poisonScenario struct {
	name string
	run  func(t *testing.T) []float64
}

// flatScenario is a flat binary federation of n vecClients (client i
// compressing with compressFor(i)) under the coordinator mut configures.
func flatScenario(n int, compressFor func(i int) string, mut func(*Coordinator)) func(t *testing.T) []float64 {
	return func(t *testing.T) []float64 {
		initial := make([]float64, 9001) // two staging chunks and a tail
		for i := range initial {
			initial[i] = math.Sin(float64(i))
		}
		coord := &Coordinator{NumClients: n, Rounds: 4, Initial: initial}
		mut(coord)
		clients := make([]fl.Client, n)
		for i := range clients {
			clients[i] = &vecClient{id: i, samples: 5 + 3*i}
		}
		addr, wait := startCoordinator(t, coord)
		waitClients := runClients(t, addr, clients, compressFor)
		global, err := wait()
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		waitClients()
		return global
	}
}

// treeShape varies treeScenario: perLeaf clients under each of the two
// leaves, the root's TreeSketchCap (0: the default), an interior node
// between the root and the leaves, a hostile extra child of the root, and
// an observer that, with a reputation tracker, makes leaf 0 keep its
// round's update column.
type treeShape struct {
	perLeaf, sketchCap int
	interior, hostile  bool
	leafKeeps          fl.RoundObserver
}

// treeScenario is a tree of binary clients, every second one of a shard
// sending topk8 deltas: root ← 2 leaves ← perLeaf clients, or root ←
// interior ← 2 leaves ← perLeaf clients. A hostile child makes the root
// fault-tolerant and is dropped in round 0 (rejectedChild).
func treeScenario(rule robust.Aggregator, shape treeShape) func(t *testing.T) []float64 {
	return func(t *testing.T) []float64 {
		const leaves = 2
		initial := make([]float64, 257)
		for i := range initial {
			initial[i] = math.Cos(float64(i))
		}
		root := &Coordinator{
			NumClients: leaves, Rounds: 4, Initial: initial,
			AcceptPartials: true, Robust: rule, TreeSketchCap: shape.sketchCap,
		}
		if shape.interior {
			root.NumClients = 1
		}
		if shape.hostile {
			root.MinQuorum = root.NumClients
			root.NumClients++
			root.RoundMetrics = fl.NewMetrics(telemetry.NewRegistry())
			defer func() {
				if n := root.RoundMetrics.ValidationRejections.Value(); n != 1 {
					t.Fatalf("the root rejected %d partials, want the hostile child's one", n)
				}
			}()
		}
		rootAddr, rootWait := startCoordinator(t, root)
		if shape.hostile {
			done := make(chan struct{})
			go func() {
				defer close(done)
				rejectedChild(rootAddr)
			}()
			defer func() { <-done }() // it returns once the root hangs up
		}
		parent := rootAddr
		var nodeWaits []func() error
		if shape.interior {
			addr, wait := startNode(t, &Leaf{
				ID: 0, Root: rootAddr,
				Local: Coordinator{NumClients: leaves, Initial: initial, AcceptPartials: true},
			})
			parent = addr
			nodeWaits = append(nodeWaits, wait)
		}
		var clientWaits []func()
		for l := 0; l < leaves; l++ {
			local := Coordinator{NumClients: shape.perLeaf, Initial: initial}
			if l == 0 && shape.leafKeeps != nil {
				local.Observers = []fl.RoundObserver{shape.leafKeeps}
				local.Reputation = robust.NewReputation(0)
			}
			addr, wait := startNode(t, &Leaf{ID: l, Root: parent, Local: local})
			nodeWaits = append(nodeWaits, wait)
			shard := make([]fl.Client, shape.perLeaf)
			for i := range shard {
				id := shape.perLeaf*l + i
				shard[i] = &vecClient{id: id, samples: 5 + 3*id}
			}
			clientWaits = append(clientWaits, runClients(t, addr, shard, func(i int) string {
				return []string{"", "topk8"}[i%2]
			}))
		}
		global, err := rootWait()
		if err != nil {
			t.Fatalf("root: %v", err)
		}
		for l, wait := range nodeWaits {
			if err := wait(); err != nil {
				t.Fatalf("tree node %d: %v", l, err)
			}
		}
		for _, wait := range clientWaits {
			wait()
		}
		return global
	}
}

// rejectedChild joins the root at addr as child aggregator 9 and answers
// round 0 with a partial whose every length is right — so the root takes
// its sketch rows — but whose second row is NaN, which validation refuses.
func rejectedChild(addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := clientHandshake(conn, br, hello{ID: 9, NumSamples: 5, Partial: true}); err != nil {
		return
	}
	fr := wire.NewReader(br)
	typ, _, size, err := fr.Header(0)
	if err != nil || typ != wire.MsgRound2 {
		return
	}
	rd, err := fr.Round(size, nil)
	if err != nil {
		return
	}
	bad := make([]float64, len(rd.Params))
	bad[0] = math.NaN()
	sk := robust.NewSketch(rd.SketchCap)
	sk.Add(robust.KeyClient(90), rd.Params)
	sk.Add(robust.KeyClient(91), bad)
	conn.Write(wire.AppendPartial2Frame(nil, fl.Partial{ //nolint:errcheck — the root hangs up either way
		Round: rd.Round, LeafID: 9, Count: 2, Weight: 10, ExpectWeight: 10, Sum: rd.Params, Sketch: sk,
	}))
	io.Copy(io.Discard, br) //nolint:errcheck — until the root hangs up
}

// TestPoisonedBuffersChangeNothing runs every round path twice — plainly,
// then with each recycled dense buffer (released window slot, client
// params after its send, the global a finalized round replaced) filled
// with NaN on release — and requires bit-identical globals: nothing that
// outlives a round aliases a buffer the wire path reuses.
func TestPoisonedBuffersChangeNothing(t *testing.T) {
	mixed := func(i int) string { return []string{"", "topk8", "q16", ""}[i%4] }
	rec := &fl.HistoryRecorder{KeepParams: true}
	scenarios := []poisonScenario{
		// A window of 2 over 5 clients makes slots change hands mid-round.
		{"flat-stream", flatScenario(5, mixed, func(c *Coordinator) { c.MaxInflightUpdates = 2 })},
		{"flat-history", flatScenario(3, mixed, func(c *Coordinator) { c.Observers = []fl.RoundObserver{rec} })},
		{"reputation", flatScenario(4, mixed, func(c *Coordinator) {
			c.Reputation = robust.NewReputation(0)
		})},
		{"median", flatScenario(5, mixed, func(c *Coordinator) { c.Robust = robust.Median{} })},
		{"trimmed", flatScenario(5, mixed, func(c *Coordinator) { c.Robust = robust.TrimmedMean{Frac: 0.2} })},
		{"clipped-stream", flatScenario(4, mixed, func(c *Coordinator) { c.Robust = robust.ClippedMean{MaxNorm: 1} })},
		{"tree-mean", treeScenario(nil, treeShape{perLeaf: 2})},
		// A leaf that keeps its column under a median root: its reservoir
		// holds some of the kept slots as rows, and its reputation scores
		// every update against the leaf-local mean.
		{"leaf-history-reputation", treeScenario(robust.Median{}, treeShape{perLeaf: 3, sketchCap: 2, leafKeeps: rec})},
		{"tree-median", treeScenario(robust.Median{}, treeShape{perLeaf: 2})},
		// Four rows a shard into a reservoir of two: leaf 0's third update
		// evicts a kept slot and its fourth is rejected, and the root's
		// merge drops half of what its children sent.
		{"tree-above-capacity", treeScenario(robust.Median{}, treeShape{perLeaf: 4, sketchCap: 2})},
		{"tree-depth3-median", treeScenario(robust.Median{}, treeShape{perLeaf: 2, interior: true})},
		{"tree-rejected-partial", treeScenario(robust.Median{}, treeShape{perLeaf: 2, hostile: true})},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := sc.run(t)
			*rec = fl.HistoryRecorder{KeepParams: true}
			poisonReleased.Store(true)
			defer poisonReleased.Store(false)
			got := sc.run(t)
			sameBits(t, sc.name, got, want)
			for _, v := range got {
				if math.IsNaN(v) {
					t.Fatal("the final global carries poison")
				}
			}
			for _, r := range rec.Rounds {
				for _, vec := range append(r.LocalParams, r.Global) {
					for _, v := range vec {
						if math.IsNaN(v) {
							t.Fatalf("round %d: a retained observer record carries poison", r.Round)
						}
					}
				}
			}
		})
	}
}

// TestKeptGlobalSurvivesLaterRounds: a round's tail hands observers the
// session's live global — on a leaf, the buffer every broadcast is decoded
// into in place — so a HistoryRecorder's kept global must be its own copy:
// round 0's still reads the initial parameters three rounds later, on a
// flat coordinator and on a leaf.
func TestKeptGlobalSurvivesLaterRounds(t *testing.T) {
	initial := make([]float64, 257)
	for i := range initial {
		initial[i] = math.Cos(float64(i))
	}
	shard := func() []fl.Client {
		return []fl.Client{&vecClient{id: 0, samples: 5}, &vecClient{id: 1, samples: 8}}
	}
	for _, leaf := range []bool{false, true} {
		rec := &fl.HistoryRecorder{KeepParams: true}
		local := Coordinator{NumClients: 2, Rounds: 4, Initial: initial, Observers: []fl.RoundObserver{rec}}
		if leaf {
			root := &Coordinator{NumClients: 1, Rounds: 4, Initial: initial, AcceptPartials: true}
			rootAddr, rootWait := startCoordinator(t, root)
			addr, leafWait := startNode(t, &Leaf{ID: 0, Root: rootAddr, Local: local})
			waitClients := runClients(t, addr, shard(), nil)
			if _, err := rootWait(); err != nil {
				t.Fatalf("root: %v", err)
			}
			if err := leafWait(); err != nil {
				t.Fatalf("leaf: %v", err)
			}
			waitClients()
		} else {
			addr, wait := startCoordinator(t, &local)
			waitClients := runClients(t, addr, shard(), nil)
			if _, err := wait(); err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			waitClients()
		}
		if len(rec.Rounds) != 4 {
			t.Fatalf("leaf=%v: recorded %d rounds, want 4", leaf, len(rec.Rounds))
		}
		sameBits(t, fmt.Sprintf("leaf=%v: round 0's kept global", leaf), rec.Rounds[0].Global, initial)
	}
}

// TestSlotPoolRecyclesAndBounds: the free list hands back what was put
// (poisoned first, when the hook is on) and never keeps a slot of another
// dimension. Reservoir rows come back exactly once: a streaming
// client-facing shard — 7 updates a round through a window of 2 into its
// round core's reservoir of K = 3 — never has more than window + K slots
// out, and a parent taking rows for merged, dropped and rejected sketch
// rows alike — and folding a sketchless partial, whose implied-mean row
// is the core's own — finds all of them free, once each, when the next
// round starts.
func TestSlotPoolRecyclesAndBounds(t *testing.T) {
	var p slotPool
	a, b := p.get(8), p.get(8)
	if &a[0] == &b[0] {
		t.Fatal("two outstanding slots share storage")
	}
	a[0], b[0] = 1, 2
	p.put(a)
	poisonReleased.Store(true)
	p.put(b)
	poisonReleased.Store(false)
	if a[0] != 1 || !math.IsNaN(b[0]) || !math.IsNaN(b[7]) {
		t.Fatalf("poison hook: released slots read %v and %v", a, b)
	}
	if c := p.get(8); &c[0] != &b[0] {
		t.Fatal("the free list did not hand back a released slot")
	}
	if d := p.get(4); len(d) != 4 || len(p.free) != 0 {
		t.Fatalf("a stale-dimension slot survived: got len %d, %d still free", len(d), len(p.free))
	}

	// Each pool below starts with a known set of vectors; at every round
	// start it must hold exactly that set again, each vector once — no row
	// leaked or released twice, and none allocated beyond the set.
	const dim, window, capRows, cohort, rounds = 4, 2, 3, 7, 4
	seed := func(p *slotPool, n int) [][]float64 {
		for range n {
			p.put(make([]float64, dim))
		}
		return append([][]float64(nil), p.free...)
	}
	allBack := func(who string, round int, p *slotPool, want [][]float64) {
		t.Helper()
		free := map[*float64]int{}
		for _, v := range p.free {
			free[&v[0]]++
		}
		for _, v := range want {
			if free[&v[0]] != 1 {
				t.Fatalf("%s, round %d: a vector is free %d times, want once", who, round, free[&v[0]])
			}
		}
		if len(p.free) != len(want) {
			t.Fatalf("%s, round %d: %d vectors free, want the %d it started with", who, round, len(p.free), len(want))
		}
	}

	newNode := func(c *Coordinator) *session {
		s := newSession(c)
		s.core.Global = make([]float64, dim)
		return s
	}
	shard := newNode(&Coordinator{})
	shardSet := seed(&shard.slots, window+capRows)
	for round := 0; ; round++ {
		shard.releaseRows()
		allBack("shard", round, &shard.slots, shardSet)
		if round == rounds {
			break
		}
		shard.core.Begin(round, capRows)
		for base := 0; base < cohort; base += window {
			var inflight [][]float64
			for range min(window, cohort-base) {
				inflight = append(inflight, shard.slots.get(dim))
			}
			for i, v := range inflight {
				if err := shard.foldUpdate(fl.Update{ClientID: round*cohort + base + i, NumSamples: 1, Params: v}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	parent := newNode(&Coordinator{AcceptPartials: true})
	parentSet := seed(&parent.slots, 3*capRows+1)
	for round := 0; ; round++ {
		parent.releaseRows()
		allBack("parent", round, &parent.slots, parentSet)
		if round == rounds {
			break
		}
		parent.core.Begin(round, capRows)
		for child := 0; child < 3; child++ {
			p := fl.Partial{LeafID: child, Weight: 1, Sum: parent.slots.get(dim)}
			if child < 2 { // child 2 is rejected after its rows were taken
				p.Sketch = robust.NewSketch(capRows)
			}
			for r := 0; r < capRows; r++ {
				row := parent.slots.row(dim)
				if p.Sketch != nil {
					p.Sketch.Insert(robust.KeyClient(100*round+10*child+r), row)
				}
			}
			if child < 2 {
				if err := parent.foldPartial(p); err != nil {
					t.Fatal(err)
				}
			} else {
				parent.slots.put(p.Sum)
			}
		}
		if err := parent.foldPartial(fl.Partial{LeafID: 7, Weight: 1, Count: 1, Sum: parent.slots.get(dim)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdleSessionsHoldNoModelVector: a client session holds its round
// buffers only from a round frame's arrival until its update's Write
// returns. Twelve concurrent sessions hold nothing while they wait for
// their next frame; a lone session's round k+1 decodes into round k's
// params; and a failed dial and a Stop each leave every pair of buffers on
// the idle list.
func TestIdleSessionsHoldNoModelVector(t *testing.T) {
	const sessions, dim = 12, 1000
	params := make([]float64, dim)
	nodes := make([]*sessionState, sessions)
	errs := make([]error, sessions)
	var wg, waiting sync.WaitGroup
	proceed := make(chan struct{})
	for i := range nodes {
		server, client := net.Pipe()
		nodes[i] = &sessionState{client: &vecClient{id: i, samples: 3}, captures: make(map[int][]byte)}
		wg.Add(2)
		waiting.Add(1)
		go func() {
			defer wg.Done()
			defer server.Close()
			fr := wire.NewReader(server)
			answer := func() {
				if _, _, n, err := fr.Header(0); err == nil {
					io.ReadFull(server, make([]byte, n)) //nolint:errcheck — the session's error is the test's
				}
			}
			server.Write(wire.AppendRoundFrame(nil, 0, -1, params)) //nolint:errcheck
			answer()
			next := wire.AppendRoundFrame(nil, 1, -1, params)
			// The first byte is consumed only once the session is reading
			// its next frame's header.
			server.Write(next[:1]) //nolint:errcheck
			waiting.Done()
			<-proceed
			server.Write(next[1:]) //nolint:errcheck
			answer()
			server.Write(wire.AppendDoneFrame(nil)) //nolint:errcheck
		}()
		go func(i int) {
			defer wg.Done()
			defer client.Close()
			_, errs[i] = answerRounds(client, wire.NewReader(client), "client", nodes[i],
				func(err error) error { return err })
		}(i)
	}
	waiting.Wait()
	for i, n := range nodes {
		if n.bufs != nil {
			t.Errorf("session %d holds %d params and a %d-byte frame while it waits for a round",
				i, len(n.bufs.params), len(n.bufs.tx))
		}
	}
	close(proceed)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	// A lone session: every round decodes into the storage the last one did.
	lone := &addrClient{vecClient: vecClient{id: 1, samples: 3}}
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		fr := wire.NewReader(server)
		for round := range 3 {
			server.Write(wire.AppendRoundFrame(nil, round, -1, params)) //nolint:errcheck
			if _, _, n, err := fr.Header(0); err == nil {
				io.ReadFull(server, make([]byte, n)) //nolint:errcheck
			}
		}
		server.Write(wire.AppendDoneFrame(nil)) //nolint:errcheck
	}()
	joinBufs(1)
	_, err := answerRounds(client, wire.NewReader(client), "client",
		&sessionState{client: lone, captures: make(map[int][]byte)}, func(err error) error { return err })
	joinBufs(-1)
	client.Close()
	if err != nil || len(lone.seen) != 3 {
		t.Fatalf("lone session: %v after %d rounds", err, len(lone.seen))
	}
	for k := 1; k < 3; k++ {
		if lone.seen[k] != lone.seen[0] {
			t.Fatalf("round %d decoded into other storage than round 0", k)
		}
	}

	// Nothing else runs now, so a session that ended holds no pair and the
	// list keeps none for it.
	givenBack := func(what string, err error) {
		t.Helper()
		idleBufs.mu.Lock()
		defer idleBufs.mu.Unlock()
		if idleBufs.held != 0 || idleBufs.members != 0 || len(idleBufs.list) != 0 {
			t.Fatalf("after %s (%v): %d pairs held, %d members, %d idle pairs; want none",
				what, err, idleBufs.held, idleBufs.members, len(idleBufs.list))
		}
	}
	givenBack("the lone session", nil)
	err = RunClientRetry("nowhere", &vecClient{}, RetryConfig{MaxAttempts: 1,
		Dial: func(string) (net.Conn, error) { return nil, net.ErrClosed }})
	if err == nil {
		t.Fatal("a failed dial succeeded")
	}
	givenBack("a failed dial", err)

	// Stopped halfway through a round frame's body, while holding a pair.
	stop := make(chan struct{})
	server, client = net.Pipe()
	go func() {
		defer server.Close()
		if gob.NewDecoder(server).Decode(&hello{}) != nil ||
			gob.NewEncoder(server).Encode(welcome{Codec: wire.CodecBinary}) != nil {
			return
		}
		frame := wire.AppendRoundFrame(nil, 0, -1, params)
		server.Write(frame[:len(frame)/2]) //nolint:errcheck
		close(stop)
		io.Copy(io.Discard, server) //nolint:errcheck — until the session hangs up
	}()
	err = RunClientRetry("pipe", &vecClient{id: 2, samples: 3}, RetryConfig{MaxAttempts: 1, Stop: stop,
		Dial: func(string) (net.Conn, error) { return client, nil }})
	if !errors.Is(err, ErrClientStopped) {
		t.Fatalf("a stopped session returned %v", err)
	}
	givenBack("a Stop", err)
}

// addrClient is a vecClient that records where each round's global lives.
type addrClient struct {
	vecClient
	seen []*float64
}

func (c *addrClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	c.seen = append(c.seen, &global[0])
	return c.vecClient.TrainLocal(round, global)
}

// TestEncodeErrorLeavesTxReusable: an update the codec refuses to encode
// (a delta whose shape does not match the mode) must leave the round's
// tx buffer exactly as reusable as before — the pooled version of this
// path leaked its buffer on every such error.
func TestEncodeErrorLeavesTxReusable(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	params := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	u := fl.Update{ClientID: 3, NumSamples: 10, TrainLoss: 1, Params: params}
	var bufs roundBufs
	st := &sessionState{captures: make(map[int][]byte), bufs: &bufs}
	send := func() error {
		frame, err := st.updateFrame(u, params)
		if err == nil {
			_, err = client.Write(frame)
		}
		return err
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	tx := &bufs.tx[0]
	dense, err := compress.Config{Mode: compress.Q8}.Compress(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := bufs.encode(u, dense, compress.TopK); err == nil {
			t.Fatal("a q8 delta encoded as top-k")
		}
		if &bufs.tx[0] != tx {
			t.Fatal("an encode error replaced the round's tx buffer")
		}
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if &bufs.tx[0] != tx {
		t.Fatal("the tx buffer was reallocated after the encode errors")
	}
}
