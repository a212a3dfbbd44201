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
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
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
func TestFlatRoundSteadyStateAllocation(t *testing.T) {
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

// treeScenario is a depth-2 tree: root ← 2 leaves ← 2 binary clients
// each, the second of every shard sending topk8 deltas.
func treeScenario(rule robust.Aggregator) func(t *testing.T) []float64 {
	return func(t *testing.T) []float64 {
		const leaves, perLeaf = 2, 2
		initial := make([]float64, 257)
		for i := range initial {
			initial[i] = math.Cos(float64(i))
		}
		root := &Coordinator{
			NumClients: leaves, Rounds: 4, Initial: initial,
			AcceptPartials: true, Robust: rule,
		}
		rootAddr, rootWait := startCoordinator(t, root)
		var nodeWaits []func() error
		var clientWaits []func()
		for l := 0; l < leaves; l++ {
			addr, wait := startNode(t, &Leaf{
				ID: l, Root: rootAddr,
				Local: Coordinator{NumClients: perLeaf, Initial: initial},
			})
			nodeWaits = append(nodeWaits, wait)
			shard := []fl.Client{
				&vecClient{id: 2 * l, samples: 5 + 6*l},
				&vecClient{id: 2*l + 1, samples: 8 + 6*l},
			}
			clientWaits = append(clientWaits, runClients(t, addr, shard, func(i int) string {
				return []string{"", "topk8"}[i]
			}))
		}
		global, err := rootWait()
		if err != nil {
			t.Fatalf("root: %v", err)
		}
		for l, wait := range nodeWaits {
			if err := wait(); err != nil {
				t.Fatalf("leaf %d: %v", l, err)
			}
			clientWaits[l]()
		}
		return global
	}
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
		{"buffered-history", flatScenario(3, mixed, func(c *Coordinator) { c.Observers = []fl.RoundObserver{rec} })},
		{"reputation", flatScenario(4, mixed, func(c *Coordinator) {
			c.Reputation = robust.NewReputation(robust.ReputationConfig{})
		})},
		{"median", flatScenario(5, mixed, func(c *Coordinator) { c.Robust = robust.Median{} })},
		{"tree-mean", treeScenario(nil)},
		{"tree-median", treeScenario(robust.Median{})},
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

// TestKeptGlobalSurvivesLaterRounds: the buffered path hands observers the
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
// dimension.
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
}

// TestOnlyOwningSessionsKeepBuffers: a session keeps its params and tx
// between rounds only when it holds one of the process's few ownership
// places — the rest (a load harness's 10⁵ in-process clients) drop both
// once their update is sent — and a finished RunClientRetry gives its
// place back.
func TestOnlyOwningSessionsKeepBuffers(t *testing.T) {
	for _, keep := range []bool{true, false} {
		server, client := net.Pipe()
		go func() {
			defer server.Close()
			server.Write(wire.AppendRoundFrame(nil, 0, -1, []float64{1, 2, 3})) //nolint:errcheck — the client's error is the test's
			if f, err := wire.ReadFrame(server, 0); err == nil {
				f.Release()
			}
			server.Write(wire.AppendDoneFrame(nil)) //nolint:errcheck
		}()
		st := &sessionState{captures: make(map[int][]byte), keepBuffers: keep}
		err := runRounds(client, client, &vecClient{id: 1, samples: 3}, compress.Config{},
			func(err error) error { return err }, st)
		client.Close()
		if err != nil {
			t.Fatalf("keepBuffers=%v: %v", keep, err)
		}
		if kept := st.params != nil && st.tx != nil; kept != keep {
			t.Fatalf("keepBuffers=%v: session ended holding params=%v tx=%v", keep, st.params != nil, st.tx != nil)
		}
	}

	before := liveSessions.Load()
	err := RunClientRetry("nowhere", &vecClient{}, RetryConfig{MaxAttempts: 1,
		Dial: func(string) (net.Conn, error) { return nil, net.ErrClosed }})
	if err == nil || liveSessions.Load() != before {
		t.Fatalf("a failed session (%v) left %d live sessions, want %d", err, liveSessions.Load(), before)
	}
}

// TestEncodeErrorLeavesTxReusable: an update the codec refuses to encode
// (a delta whose shape does not match the mode) must leave the session's
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
	st := &sessionState{captures: make(map[int][]byte)}
	if err := sendUpdate(client, u, params, compress.Config{}, st); err != nil {
		t.Fatal(err)
	}
	tx := &st.tx[0]
	dense, err := compress.Config{Mode: compress.Q8}.Compress(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := st.encodeUpdate(u, dense, compress.TopK); err == nil {
			t.Fatal("a q8 delta encoded as top-k")
		}
		if &st.tx[0] != tx {
			t.Fatal("an encode error replaced the session's tx buffer")
		}
	}
	if err := sendUpdate(client, u, params, compress.Config{}, st); err != nil {
		t.Fatal(err)
	}
	if &st.tx[0] != tx {
		t.Fatal("the tx buffer was reallocated after the encode errors")
	}
}
