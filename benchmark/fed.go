package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/transport"
)

// The two fed_* workloads: a federation over loopback TCP whose clients do
// no training, so frames, codecs, validation, folds and the session loop
// are the whole round. fed_flat_dense is the path every deployment uses;
// fed_tree_topk8_median runs the same wire and transport layers the other
// way (sparse updates up, partials between tiers, a robust rule at the
// root).

// synthClient returns global + scale(round)·delta: O(dim) work, and
// deterministic in (seed, client, round) so a reference can replay it.
type synthClient struct {
	id      int
	samples int
	delta   []float64
	out     []float64 // reused: the session sends an update before asking for the next

	// keepRound, when >= 0, is the round whose incoming global (the global
	// after keepRound rounds) is copied to kept, for the reference check.
	keepRound int
	kept      []float64
}

func newSynthClient(seed int64, id, dim int) *synthClient {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id) + 1))
	d := make([]float64, dim)
	for i := range d {
		d[i] = rng.NormFloat64() * 1e-2
	}
	return &synthClient{id: id, samples: 100 * (id + 1), delta: d, out: make([]float64, dim), keepRound: -1}
}

func roundScale(round int) float64 { return 1 / float64(1+round%7) }

func (c *synthClient) ID() int         { return c.id }
func (c *synthClient) NumSamples() int { return c.samples }

func (c *synthClient) fill(out []float64, round int, global []float64) {
	s := roundScale(round)
	for i, g := range global {
		out[i] = g + s*c.delta[i]
	}
}

func (c *synthClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	if len(global) != len(c.delta) {
		return fl.Update{}, fmt.Errorf("benchmark: client %d got %d params, want %d", c.id, len(global), len(c.delta))
	}
	if round == c.keepRound {
		c.kept = append([]float64(nil), global...)
	}
	c.fill(c.out, round, global)
	return fl.Update{Params: c.out, NumSamples: c.samples, TrainLoss: 1}, nil
}

// tracedClient is the fl.Client decorator: one span per TrainLocal.
type tracedClient struct {
	fl.Client
	tr    *tracer
	actor string
}

func (c *tracedClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	id := c.tr.begin("fl.client_train", c.actor, round, -1)
	defer c.tr.end(id)
	return c.Client.TrainLocal(round, global)
}

func initialGlobal(seed int64, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, dim)
	for i := range g {
		g[i] = rng.NormFloat64() * 0.05
	}
	return g
}

// roundClock rides Coordinator.AfterRound. Rounds before warm are set-up;
// the round that ends warm-up settles the heap and starts the clock, and
// every later round is timed until the coordinator's fixed Rounds are done.
type roundClock struct {
	warm, total int
	tr          *tracer

	warmed  chan struct{} // closed when warm-up ends
	prev    time.Time
	prevCPU float64
	ts      timedSection
	win     traceWindow
}

func (rc *roundClock) afterRound(round int) error {
	now := time.Now()
	switch {
	case round < rc.warm-1:
	case round == rc.warm-1:
		settle()
		if rc.tr != nil {
			rc.win.open(rc.tr, nil)
		}
		rc.ts.mem0 = readMem()
		close(rc.warmed)
		rc.prev, rc.prevCPU = time.Now(), cpuSeconds()
	default:
		rc.ts.rounds = append(rc.ts.rounds, now.Sub(rc.prev).Seconds())
		rc.ts.cpus = append(rc.ts.cpus, (cpuSeconds()-rc.prevCPU)/nClients)
		if rc.tr != nil {
			rc.win.sample()
		}
		if round+1 == rc.total {
			rc.ts.mem1 = readMem()
			if rc.tr != nil {
				rc.win.close(rc.tr, nil)
			}
			rc.ts.liveHeap = liveHeapMB()
		}
		// the MemStats stop-the-world stays off the next round's clocks
		rc.prev, rc.prevCPU = time.Now(), cpuSeconds()
	}
	return nil
}

// fedInstance is one running federation. wait blocks until every node has
// returned and yields the root's final global.
type fedInstance struct {
	clock     *roundClock
	clients   []*synthClient
	initial   []float64
	agg       *rootRule
	handshake func() float64
	done      chan struct{} // closed when every node has returned
	wait      func() ([]float64, error)
}

type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// startFed brings a federation of exactly rounds rounds up on loopback TCP
// and returns once it is running. Client 0 keeps the global it is handed
// in round keepRound (-1: none).
func startFed(tree bool, seed int64, sz sizes, rounds, keepRound int, tr *tracer) (*fedInstance, error) {
	warm := sz.warmFlat
	if tree {
		warm = sz.warmTree
	}
	inst := &fedInstance{initial: initialGlobal(seed, sz.dim), handshake: func() float64 { return 0 },
		done: make(chan struct{})}
	for i := 0; i < nClients; i++ {
		inst.clients = append(inst.clients, newSynthClient(seed, i, sz.dim))
	}
	inst.clients[0].keepRound = keepRound
	root := &transport.Coordinator{
		NumClients: nClients, Rounds: rounds, Initial: inst.initial, Codec: "binary",
	}
	clock := &roundClock{warm: warm, total: rounds, tr: tr, warmed: make(chan struct{})}
	root.AfterRound = clock.afterRound
	inst.clock = clock

	// With tracing off the transport dials for itself and sees bare
	// *net.TCPConn; traced runs hand it counting, timing connections.
	var clientDial, leafDial func(string) (net.Conn, error)
	if tr != nil {
		var leafHS func() float64
		clientDial, inst.handshake = tracedDial(tr, "client")
		leafDial, leafHS = tracedDial(tr, "leaf")
		clientHS := inst.handshake
		inst.handshake = func() float64 { return max(clientHS(), leafHS()) }
	}

	clientCfg := transport.RetryConfig{MaxAttempts: 1, Codec: "binary", Dial: clientDial}
	if tree {
		root.AcceptPartials = true
		inst.agg = &rootRule{inner: robust.Median{}, tr: tr, wantRows: nClients}
		root.Robust = inst.agg
		clientCfg.Compress, clientCfg.TopKFrac = "topk8", sz.topKFrac
	}

	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	rootLn, err := listen()
	if err != nil {
		return nil, err
	}
	var errs firstErr
	var wg sync.WaitGroup
	var final []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rootLn.Close() //nolint:errcheck
		g, err := root.RunWithListener(rootLn, nil)
		if err != nil {
			errs.set(fmt.Errorf("root: %w", err))
		}
		final = g
	}()

	// Flat: both clients dial the root. Tree: client i dials leaf i, which
	// dials the root.
	clientAddr := make([]string, nClients)
	for i := range clientAddr {
		clientAddr[i] = rootLn.Addr().String()
		if !tree {
			continue
		}
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		clientAddr[i] = ln.Addr().String()
		leaf := &transport.Leaf{
			ID: i, Root: rootLn.Addr().String(),
			Local: transport.Coordinator{NumClients: 1, Initial: inst.initial, Codec: "binary"},
			Retry: transport.RetryConfig{MaxAttempts: 1, Dial: leafDial},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ln.Close() //nolint:errcheck
			if _, err := leaf.RunWithListener(ln, nil); err != nil {
				errs.set(fmt.Errorf("leaf %d: %w", leaf.ID, err))
			}
		}()
	}
	for i, c := range inst.clients {
		var client fl.Client = c
		if tr != nil {
			client = &tracedClient{Client: c, tr: tr, actor: fmt.Sprintf("client%d", i)}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := transport.RunClientRetry(clientAddr[i], client, clientCfg); err != nil {
				errs.set(fmt.Errorf("client %d: %w", i, err))
			}
		}()
	}
	go func() {
		wg.Wait()
		close(inst.done)
	}()
	inst.wait = func() ([]float64, error) {
		<-inst.done
		return final, errs.err
	}
	return inst, nil
}

// flatReference replays rounds [0, n) of the flat workload: fl.Aggregate
// over the very updates the synthetic clients produce.
func flatReference(inst *fedInstance, n int) ([]float64, error) {
	g := append([]float64(nil), inst.initial...)
	ups := make([]fl.Update, len(inst.clients))
	for i, c := range inst.clients {
		ups[i] = fl.Update{ClientID: c.id, NumSamples: c.samples, Params: make([]float64, len(g))}
	}
	for r := 0; r < n; r++ {
		var wg sync.WaitGroup
		for i, c := range inst.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.fill(ups[i].Params, r, g)
			}()
		}
		wg.Wait()
		next, err := fl.Aggregate(ups)
		if err != nil {
			return nil, err
		}
		g = next
	}
	return g, nil
}

// treeReference replays rounds [0, n) of the tree workload in process:
// each update crosses compress.Bank.RoundTrip (the top-k + int8 + error
// feedback the wire applies; one bank per client, as a Bank is not safe
// for concurrent use) and the root takes robust.Median of the rows.
func treeReference(inst *fedInstance, n int, topKFrac float64) ([]float64, error) {
	g := append([]float64(nil), inst.initial...)
	banks := make([]*compress.Bank, len(inst.clients))
	raws := make([][]float64, len(inst.clients))
	for i := range banks {
		banks[i] = compress.NewBank(compress.Config{Mode: compress.TopKQ8, TopKFrac: topKFrac})
		raws[i] = make([]float64, len(g))
	}
	for r := 0; r < n; r++ {
		rows := make([][]float64, len(inst.clients))
		var errs firstErr
		var wg sync.WaitGroup
		for i, c := range inst.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.fill(raws[i], r, g)
				row, _, err := banks[i].RoundTrip(c.id, g, raws[i])
				errs.set(err)
				rows[i] = row
			}()
		}
		wg.Wait()
		if errs.err != nil {
			return nil, errs.err
		}
		next, _, err := robust.Median{}.Aggregate(g, rows, nil)
		if err != nil {
			return nil, err
		}
		g = next
	}
	return g, nil
}

func runFed(cfg runConfig, tree bool) (*runResult, error) {
	sz := cfg.sz
	res := newRunResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	warm, rate := sz.warmFlat, sz.rateFlat
	if tree {
		warm, rate = sz.warmTree, sz.rateTree
	}
	nRounds := sz.timedRounds(rate, cfg.seconds, cfg.trace)
	total := warm + nRounds
	prefix := min(sz.treePrefix, total)

	// Set-up several times over: listeners, handshake and warm-up rounds.
	// All but the last federation end right after warm-up; their finals
	// must agree bit for bit (one seed, one answer).
	var setups []float64
	var warmFinals [][]float64
	var inst *fedInstance
	for i := 0; i < sz.setupFed; i++ {
		last := i == sz.setupFed-1
		rounds, keep := warm, -1
		if last {
			rounds = total
			if tree && prefix < total {
				keep = prefix
			}
		}
		t := time.Now()
		var err error
		if inst, err = startFed(tree, cfg.seed, sz, rounds, keep, tr); err != nil {
			return nil, err
		}
		select {
		case <-inst.clock.warmed:
		case <-inst.done: // failed before warm-up ended; wait() below reports why
		}
		setups = append(setups, time.Since(t).Seconds())
		if !last {
			g, err := inst.wait()
			if err != nil {
				return nil, err
			}
			warmFinals = append(warmFinals, g)
		}
	}
	final, err := inst.wait()
	rss := peakRSSMB()
	ts := &inst.clock.ts
	ts.setups = setups
	updates := nRounds * nClients
	res.Attempted += total * nClients
	if err != nil {
		// Fail-stop coordinator: any rejected, dropped or errored update
		// aborts the federation, so one error fails the run.
		res.check(false, "federation failed: %v", err)
		return res, nil
	}
	res.check(len(ts.rounds) == nRounds, "timed %d rounds, want %d", len(ts.rounds), nRounds)

	// One seed, one answer: the throwaway federations agree bit for bit,
	// and the final global — every run does the same rounds — is a gauge
	// that repeats across runs. The flat run is replayed whole with
	// fl.Aggregate; a tree round costs a top-k per client to replay, so the
	// tree is checked over its first treePrefix rounds (warm-up and then
	// some, with error-feedback residuals in play) against
	// compress.Bank.RoundTrip + robust.Median.
	res.gauge("global_digest_after_warmup", digest(warmFinals[0]))
	res.gauge("global_digest_final", digest(final))
	for _, g := range warmFinals[1:] {
		res.check(bitEqual(g, warmFinals[0]), "global after warm-up differs between two federations at one seed")
	}
	if tree {
		got := final
		if prefix < total {
			got = inst.clients[0].kept
		}
		ref, err := treeReference(inst, prefix, sz.topKFrac)
		if err != nil {
			return nil, err
		}
		res.check(bitEqual(got, ref), "global after %d rounds differs from compress.Bank.RoundTrip + robust.Median", prefix)
		// One exact row per client in every round's merged sketch is both
		// "sketch-exact" and "coverage 1.0" seen from the root's rule.
		exact := int(inst.agg.exact.Load())
		res.check(exact == total, "root saw %d sketch-exact full-coverage rounds of %d", exact, total)
	} else {
		ref, err := flatReference(inst, total)
		if err != nil {
			return nil, err
		}
		res.check(bitEqual(final, ref), "final global differs from fl.Aggregate over the same %d rounds of updates", total)
	}
	finite := true
	for _, v := range final {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
	}
	res.check(finite, "final global has non-finite entries")

	res.setMeasured(ts, rss)
	if tr == nil {
		return res, nil
	}

	clock, rounds := inst.clock, ts.rounds
	if tree {
		res.set("robust.sketch_exact_rounds", float64(inst.agg.exact.Load())-float64(warm), nRounds)
	}
	d := tallyDelta(clock.win.after, clock.win.before)
	n := float64(nRounds)
	lo, hi := warm, warm+nRounds
	meanRound := sum(rounds) / n
	res.set("trace.rounds", n, 1)
	if p90, ok := percentile(rounds, 90); ok {
		res.set("transport.round_p90_s", p90, nRounds)
	}
	trainMax, _ := setClientTrain(res, tr, lo, hi, meanRound)

	clientBytes := float64(d["client.read"].Bytes + d["client.write"].Bytes)
	res.set("wire.bytes_per_update", clientBytes/float64(updates), updates)
	res.set("wire.tx_bytes_per_round", float64(d["client.read"].Bytes+d["leaf.read"].Bytes)/n, nRounds)
	res.set("wire.rx_bytes_per_round", float64(d["client.write"].Bytes+d["leaf.write"].Bytes)/n, nRounds)
	res.set("transport.handshake_s", inst.handshake(), nClients)
	res.set("transport.conn_read_wait_s_per_round", float64(d["client.read"].NS)/1e9/n, nRounds)
	res.set("transport.conn_write_s_per_round", float64(d["client.write"].NS)/1e9/n, nRounds)
	res.set("transport.leaf_forward_s_per_round", float64(d["leaf.write"].NS)/1e9/n, nRounds)
	if tree {
		res.set("robust.aggregate_s_per_round", tr.spanSeconds("robust.aggregate", lo, hi)/n, nRounds)
	}
	clock.win.setRuntime(res, ts)

	rp, err := replayFed(cfg, tree, inst, final, replayBudget(cfg.seconds))
	if err != nil {
		return nil, err
	}
	res.set("fl.validate_s_per_update", rp.validateS, 0)
	res.set("fl.fold_s_per_update", rp.foldS, 0)
	res.set("fl.finalize_s_per_round", rp.finalizeS, 0)
	res.set("wire.encode_round_s", rp.encodeRoundS, 0)
	res.set("wire.decode_round_s", rp.decodeRoundS, 0)
	res.set("wire.encode_update_s", rp.encodeUpdateS, 0)
	res.set("wire.decode_update_s", rp.decodeUpdateS, 0)
	res.set("checkpoint.save_s", rp.ckptS, 0)
	res.set("checkpoint.bytes", rp.ckptBytes, 0)
	// The serial path of one round, as the replays price it; see README
	// "transport.self" for why each term appears as often as it does.
	path := trainMax + rp.encodeRoundS + rp.decodeRoundS + rp.encodeUpdateS + rp.decodeUpdateS +
		rp.validateS + rp.foldS
	if tree {
		res.set("wire.encode_partial_s", rp.encodePartialS, 0)
		res.set("wire.decode_partial_s", rp.decodePartialS, 0)
		res.set("compress.topk_s_per_update", rp.topkS, 0)
		res.set("compress.decode_s_per_update", rp.densifyS, 0)
		res.set("compress.ratio", rp.ratio, 0)
		res.set("robust.sketch_add_s", rp.sketchAddS, 0)
		res.set("robust.sketch_merge_s", rp.sketchMergeS, 0)
		path += rp.encodeRound2S + rp.decodeRound2S + rp.topkS + rp.densifyS + rp.sketchAddS +
			rp.encodePartialS + rp.decodePartialS + float64(nClients)*rp.sketchMergeS +
			tr.spanSeconds("robust.aggregate", lo, hi)/n
	} else {
		path += rp.foldS + rp.finalizeS // the second client's fold is serial behind the first
	}
	self := meanRound - path
	res.set("transport.self_s_per_round", self, nRounds)
	res.set("trace.unattributed_frac", math.Max(0, -self)/meanRound, 0)

	if err := tr.write(cfg.outDir, cfg.workload); err != nil {
		return nil, err
	}
	return res, nil
}
