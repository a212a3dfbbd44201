package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// The two cip_* workloads: two CIP clients (Step I + Step II, the paper's
// α=0.9 setting) under an in-process fl.Server, then an audit phase that
// reads the trained model the way an attacker and an evaluator would.

const nClients = 2 // one per core of the reference host; see README "closed loop"

type cipSpec struct {
	name      string
	arch      model.Arch
	precision tensor.Precision
}

// cipInstance is one fully set-up federation, ready for its first timed
// round. Set-up builds several (setup_s is their median) and measures the
// last.
type cipInstance struct {
	clients []cipClient
	srv     *fl.Server
	heldOut *datasets.Dataset
	losses  *lossObserver
	genS    float64 // datasets.generate_s
}

// cipClient is what the harness needs from a client beyond fl.Client;
// *core.Client and the traced replica both provide it.
type cipClient interface {
	fl.Client
	Model() *core.CIPModel
	Data() *datasets.Dataset
}

// lossObserver keeps each round's mean client training loss and counts the
// updates the server folded.
type lossObserver struct {
	perRound []float64
	updates  int
}

func (o *lossObserver) ObserveRound(_ int, _ []float64, updates []fl.Update) {
	var s float64
	for _, u := range updates {
		s += u.TrainLoss
	}
	o.perRound = append(o.perRound, s/float64(len(updates)))
	o.updates += len(updates)
}

func trainConfig() core.TrainConfig {
	return core.TrainConfig{
		Alpha: 0.9, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02,
		BatchSize: 32, LocalEpochs: 1, Momentum: 0.9,
	}
}

// cipData generates the workload's inputs from the seed: one shard per
// client and a held-out set no client trains on.
func cipData(spec cipSpec, seed int64, sz sizes) (shards []*datasets.Dataset, heldOut *datasets.Dataset, err error) {
	var train *datasets.Dataset
	per := sz.vggPerClient
	if spec.arch == model.MLP {
		per = sz.mlpPerClient
		scale := datasets.Quick
		if sz.mlpFull {
			scale = datasets.Full
		}
		d, lerr := datasets.Load(datasets.Purchase50, scale, seed)
		if lerr != nil {
			return nil, nil, lerr
		}
		if d.Train.Len() < nClients*per || d.Test.Len() < sz.mlpHeldOut {
			return nil, nil, fmt.Errorf("benchmark: Purchase-50 preset has %d/%d samples, need %d/%d",
				d.Train.Len(), d.Test.Len(), nClients*per, sz.mlpHeldOut)
		}
		train = d.Train
		heldOut, _ = d.Test.Split(sz.mlpHeldOut)
	} else {
		train, heldOut, err = datasets.SyntheticImages(datasets.ImageConfig{
			Classes: sz.imgClasses, Train: nClients * per, Test: sz.vggHeldOut,
			C: 3, H: sz.imgHW, W: sz.imgHW, Signal: 0.4, Noise: 0.3, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < nClients; i++ {
		idx := make([]int, per)
		for j := range idx {
			idx[j] = i*per + j
		}
		shards = append(shards, train.Subset(idx))
	}
	return shards, heldOut, nil
}

func buildCIP(spec cipSpec, seed int64, sz sizes, tr *tracer) (*cipInstance, error) {
	t := time.Now()
	shards, heldOut, err := cipData(spec, seed, sz)
	if err != nil {
		return nil, err
	}
	inst := &cipInstance{heldOut: heldOut, losses: &lossObserver{}, genS: time.Since(t).Seconds()}
	tc := trainConfig()
	var initial []float64
	flClients := make([]fl.Client, nClients)
	for i := 0; i < nClients; i++ {
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(seed+1)), spec.arch,
			shards[i].In, shards[i].NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		rng := rand.New(rand.NewSource(seed + int64(20+i)))
		c := core.NewClient(i, dual, shards[i], tc, core.BlendSeed(seed, i), rng)
		var cc cipClient = c
		if tr != nil {
			cc = newTracedCIPClient(tr, c, rng)
		}
		inst.clients = append(inst.clients, cc)
		flClients[i] = cc
	}
	inst.srv = fl.NewServer(initial, flClients...)
	inst.srv.Workers = nClients
	inst.srv.Observers = []fl.RoundObserver{inst.losses}
	return inst, nil
}

// audit is the read-beside-write phase: Ob-MALT without and with the
// secret t over members and non-members, and test accuracy on the held-out
// set — forward-only, eval mode, batch 64.
type auditResult struct {
	queries             int
	obmaltS, evaluateS  float64
	miWithoutT, miWithT float64
	testAcc             float64
}

func audit(m *core.CIPModel, members, non, heldOut *datasets.Dataset) auditResult {
	t := time.Now()
	without := attacks.ObMALT(m.WithT(m.ZeroT()), members, non)
	with := attacks.ObMALT(m, members, non)
	obmalt := time.Since(t).Seconds()
	t = time.Now()
	acc := fl.Evaluate(m, heldOut, 64)
	return auditResult{
		queries: 2*(members.Len()+non.Len()) + heldOut.Len(),
		obmaltS: obmalt, evaluateS: time.Since(t).Seconds(),
		miWithoutT: without.Accuracy(), miWithT: with.Accuracy(), testAcc: acc,
	}
}

// snapshot is client 0's model, secret t and first auditN training samples
// as they stood after the gauge round (sizes.gaugeRounds): the traced run
// stops there and the untraced run trains on, so quality read off the
// snapshot is the same in both, bit for bit, and moves only when the
// arithmetic does.
type snapshot struct {
	params, t []float64
	members   *datasets.Dataset
}

func takeSnapshot(inst *cipInstance, sz sizes) snapshot {
	c := inst.clients[0]
	members, _ := c.Data().Split(min(sz.auditN, c.Data().Len()))
	return snapshot{
		params:  nn.FlattenParams(c.Model().Params()),
		t:       append([]float64(nil), c.Model().T.Data...),
		members: members,
	}
}

// model rebuilds the snapshot's CIP model on a fresh network.
func (p snapshot) model(spec cipSpec, seed int64, like *core.CIPModel) (*core.CIPModel, error) {
	in := p.members.In
	dual := core.NewDualChannelModel(rand.New(rand.NewSource(seed+1)), spec.arch, in, p.members.NumClasses)
	if err := nn.SetFlatParams(dual.Params(), p.params); err != nil {
		return nil, err
	}
	t := like.ZeroT()
	copy(t.Data, p.t)
	return core.NewCIPModel(dual, t, like.Alpha), nil
}

// traceWindow holds what the traced run reads at the two ends of the timed
// rounds: per-layer figures are differences across the window, so set-up
// before it and the audit after it stay out of them.
type traceWindow struct {
	before, after        map[string]tallyValue
	calls0, calls1       [][2][]int64 // cip_* only: layerCalls
	gemmFlops, poolGets  uint64
	poolMisses, heapPeak uint64
	goroutinesPeak       int
}

func (w *traceWindow) open(tr *tracer, inst *cipInstance) {
	_, f := tensor.GEMMStats()
	g, m, _ := tensor.PoolStats()
	w.gemmFlops, w.poolGets, w.poolMisses = f, g, m
	w.before = tr.snapshot()
	if inst != nil {
		w.calls0 = layerCalls(inst)
	}
}

// sample runs at every round boundary of the window.
func (w *traceWindow) sample() {
	w.heapPeak = max(w.heapPeak, readMem().heapInuse)
	w.goroutinesPeak = max(w.goroutinesPeak, runtime.NumGoroutine())
}

func (w *traceWindow) close(tr *tracer, inst *cipInstance) {
	_, f := tensor.GEMMStats()
	g, m, _ := tensor.PoolStats()
	w.gemmFlops, w.poolGets, w.poolMisses = f-w.gemmFlops, g-w.poolGets, m-w.poolMisses
	w.after = tr.snapshot()
	if inst != nil {
		w.calls1 = layerCalls(inst)
	}
}

// setRuntime fills the runtime.* metrics: MemStats differences across the
// timed section and the peaks the window sampled.
func (w *traceWindow) setRuntime(res *runResult, ts *timedSection) {
	nRounds := len(ts.rounds)
	n := float64(nRounds)
	res.set("runtime.alloc_mb_per_round", float64(ts.mem1.allocBytes-ts.mem0.allocBytes)/1e6/n, nRounds)
	res.set("runtime.mallocs_per_round", float64(ts.mem1.mallocs-ts.mem0.mallocs)/n, nRounds)
	res.set("runtime.gc_cycles_per_round", float64(ts.mem1.gcCycles-ts.mem0.gcCycles)/n, nRounds)
	res.set("runtime.gc_pause_ms_per_round", float64(ts.mem1.pauseNS-ts.mem0.pauseNS)/1e6/n, nRounds)
	res.set("runtime.heap_inuse_peak_mb", float64(w.heapPeak)/1e6, nRounds)
	res.set("runtime.goroutines_peak", float64(w.goroutinesPeak), nRounds)
}

// setClientTrain fills the fl.client_train_* metrics from the per-client
// TrainLocal spans of rounds [lo, hi) and returns the mean per round of the
// slowest client's time and of the clients' summed time. The clients run
// in parallel, so the slowest one is what a round waits for.
func setClientTrain(res *runResult, tr *tracer, lo, hi int, meanRound float64) (meanMax, meanSum float64) {
	var maxes, sums, gaps float64
	for _, per := range tr.perRound("fl.client_train", lo, hi) {
		mx, mn, s := 0.0, math.Inf(1), 0.0
		for _, v := range per {
			mx, mn, s = max(mx, v), min(mn, v), s+v
		}
		maxes, sums, gaps = maxes+mx, sums+s, gaps+mx-mn
	}
	n := hi - lo
	meanMax, meanSum = maxes/float64(n), sums/float64(n)
	res.set("fl.client_train_max_s_per_round", meanMax, n)
	res.set("fl.client_train_sum_s_per_round", meanSum, n)
	res.set("fl.straggler_gap_s", gaps/float64(n), n)
	res.set("fl.engine_self_s_per_round", meanRound-meanMax, n)
	return meanMax, meanSum
}

func runCIP(cfg runConfig, spec cipSpec) (*runResult, error) {
	sz := cfg.sz
	core.SetTrainingPrecision(spec.precision)
	res := newRunResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rate, repeats := sz.rateVGG, sz.auditVGG
	if spec.arch == model.MLP {
		rate, repeats = sz.rateMLP, sz.auditMLP
	}
	nRounds := sz.timedRounds(rate, cfg.seconds, cfg.trace)
	gaugeAt := sz.gaugeRounds(rate, cfg.seconds)

	// Set-up, several times over; every instance starts from the same
	// seed, so their post-warm-up globals must be bit-identical.
	var ts timedSection
	var inst *cipInstance
	var digests []string
	for i := 0; i < sz.setupCIP; i++ {
		t := time.Now()
		var err error
		if inst, err = buildCIP(spec, cfg.seed, sz, tr); err != nil {
			return nil, err
		}
		if err := inst.srv.Run(sz.warmCIP); err != nil {
			return nil, err
		}
		ts.setups = append(ts.setups, time.Since(t).Seconds())
		digests = append(digests, digest(inst.srv.Global()))
	}
	for _, d := range digests[1:] {
		res.check(d == digests[0], "parameter digest differs between two set-ups at one seed: %s vs %s", d, digests[0])
	}

	// Timed rounds: a fixed count, so every run of one size does the same
	// work and ends on the same parameters.
	settle()
	var win traceWindow
	if tr != nil {
		win.open(tr, inst)
	}
	var gauge snapshot
	ts.mem0 = readMem()
	for i := 0; i < nRounds; i++ {
		t, c := time.Now(), cpuSeconds()
		if err := inst.srv.Run(sz.warmCIP + i + 1); err != nil {
			return nil, err
		}
		ts.rounds = append(ts.rounds, time.Since(t).Seconds())
		ts.cpus = append(ts.cpus, (cpuSeconds()-c)/nClients)
		if i+1 == gaugeAt {
			gauge = takeSnapshot(inst, sz)
		}
		if tr != nil {
			win.sample()
		}
	}
	ts.mem1 = readMem()
	if tr != nil {
		win.close(tr, inst)
	}
	ts.liveHeap = liveHeapMB()
	updates := nRounds * nClients

	// Audit. The timed repeats on the live model feed attacks.* only, so
	// untraced runs skip them and audit just the snapshot, for the checks.
	if tr == nil {
		repeats = 0
	}
	live := inst.clients[0].Model()
	non, _ := inst.heldOut.Split(min(sz.auditN, inst.heldOut.Len()))
	var qps, obmaltS, evalS []float64
	queries := 0
	for i := 0; i < repeats; i++ {
		au := audit(live, gauge.members, non, inst.heldOut)
		qps = append(qps, float64(au.queries)/(au.obmaltS+au.evaluateS))
		obmaltS = append(obmaltS, au.obmaltS)
		evalS = append(evalS, au.evaluateS)
		queries += au.queries
	}
	rss := peakRSSMB()
	frozen, err := gauge.model(spec, cfg.seed, live)
	if err != nil {
		return nil, err
	}
	quality := audit(frozen, gauge.members, non, inst.heldOut)
	memberAcc := fl.Evaluate(frozen, gauge.members, 64)

	// Output checks.
	losses := inst.losses.perRound
	gaugeLoss := losses[sz.warmCIP+gaugeAt-1]
	finite := true
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			finite = false
		}
	}
	res.check(finite, "a client reported a non-finite training loss")
	res.check(gaugeLoss < losses[0], "training loss did not fall: %.4f -> %.4f", losses[0], gaugeLoss)
	res.check(inst.losses.updates == (sz.warmCIP+nRounds)*nClients, "server folded %d updates, want %d",
		inst.losses.updates, (sz.warmCIP+nRounds)*nClients)
	if spec.arch == model.MLP {
		res.check(quality.testAcc >= sz.mlpMinAcc, "core.test_acc %.4f below %.2f", quality.testAcc, sz.mlpMinAcc)
	} else {
		// Under one training sample per class the VGG cannot generalise in
		// any run this short (core.test_acc sits at chance), so what is
		// gated is that it fits the samples it was given.
		res.check(memberAcc >= sz.vggMinMember, "accuracy on client 0's own samples %.4f below %.2f", memberAcc, sz.vggMinMember)
	}
	res.Attempted += updates + queries
	res.gauge("param_digest_after_warmup", digests[0])
	res.gauge("param_digest_final", digest(inst.srv.Global()))
	res.gauge("core.final_train_loss", fmt.Sprintf("%.17g", gaugeLoss))
	res.gauge("core.test_acc", fmt.Sprintf("%.17g", quality.testAcc))
	res.gauge("core.member_acc", fmt.Sprintf("%.17g", memberAcc))
	res.gauge("attacks.mi_acc_without_t", fmt.Sprintf("%.17g", quality.miWithoutT))
	res.gauge("attacks.mi_acc_with_t", fmt.Sprintf("%.17g", quality.miWithT))
	res.setMeasured(&ts, rss)
	if tr == nil {
		return res, nil
	}

	res.set("trace.rounds", float64(nRounds), 1)
	res.set("core.final_train_loss", gaugeLoss, 1)
	res.set("core.test_acc", quality.testAcc, 1)
	res.set("attacks.audit_queries_per_s", median(qps), repeats)
	res.set("attacks.obmalt_s", median(obmaltS), repeats)
	res.set("attacks.evaluate_s", median(evalS), repeats)
	res.set("attacks.mi_acc_without_t", quality.miWithoutT, 1)
	res.set("attacks.mi_acc_with_t", quality.miWithT, 1)
	res.set("datasets.generate_s", inst.genS, 1)
	rp := replayCIP(cfg, spec, inst, replayBudget(cfg.seconds))
	setCIPLayers(res, tr, &win, &ts, rp, sz.warmCIP, sum(ts.rounds)/float64(nRounds))
	if err := tr.write(cfg.outDir, cfg.workload); err != nil {
		return nil, err
	}
	return res, nil
}

// replayBudget is the time a traced run gives its replays: half of
// --seconds, the timed rounds having taken a quarter.
func replayBudget(seconds float64) time.Duration {
	return time.Duration(seconds / 2 * float64(time.Second))
}

// setCIPLayers fills the tensor/nn/core/fl/runtime metrics of a traced
// cip_* run. Layer and step times are the mean over the two clients of
// time per round. Decorators cover the backbone slots, the optimizer and
// the client's steps; the replays rp cover what no decorator can reach
// (the concrete *nn.Dense head, nn.SoftmaxCrossEntropy, core.Blend, the
// tensor lowering and conversion kernels), priced alone at this
// workload's shapes and multiplied by how often the window called them.
func setCIPLayers(res *runResult, tr *tracer, win *traceWindow, ts *timedSection, rp cipReplay, warm int, meanRound float64) {
	nRounds := len(ts.rounds)
	perCR := float64(nRounds * nClients)
	d := tallyDelta(win.after, win.before)
	tallied := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += d[n].NS
		}
		return float64(ns) / 1e9 / perCR
	}
	lo, hi := warm, warm+nRounds
	span := func(name string) float64 { return tr.spanSeconds(name, lo, hi) / perCR }
	// calls prices per-slot call counts: way 0 forward, 1 backward.
	calls := func(way int, perCall []float64) float64 {
		var s float64
		for c := range win.calls1 {
			for j, n := range win.calls1[c][way] {
				s += perCall[j] * float64(n-win.calls0[c][way][j])
			}
		}
		return s / perCR
	}
	// CIPModel.Forward and Backward each run the shared backbone twice, so
	// the model (and with it head, loss and blend) is called half as often
	// as the first backbone slot.
	first := make([]float64, len(rp.im2colS))
	if len(first) > 0 {
		first[0] = 0.5
	}
	modelFwd, modelBwd := calls(0, first), calls(1, first)
	headFwd, headBwd := rp.headFwdS*modelFwd, rp.headBwdS*modelBwd
	loss, blend := rp.lossS*modelFwd, rp.blendS*modelFwd

	res.set("nn.conv_fwd_s_per_round", tallied("nn.conv_fwd"), 0)
	res.set("nn.conv_bwd_s_per_round", tallied("nn.conv_bwd"), 0)
	res.set("nn.dense_fwd_s_per_round", tallied("nn.dense_fwd")+headFwd, 0)
	res.set("nn.dense_bwd_s_per_round", tallied("nn.dense_bwd")+headBwd, 0)
	res.set("nn.relu_s_per_round", tallied("nn.relu_fwd", "nn.relu_bwd"), 0)
	res.set("nn.maxpool_s_per_round", tallied("nn.maxpool_fwd", "nn.maxpool_bwd"), 0)
	res.set("nn.loss_s_per_round", loss, 0)
	res.set("nn.optimizer_s_per_round", tallied("nn.optimizer"), 0)
	res.set("nn.flatten_s_per_round", tallied("nn.flatten"), 0)
	res.set("core.step1_s_per_round", span("core.step1"), 0)
	res.set("core.step2_s_per_round", span("core.step2"), 0)
	res.set("core.calibration_s_per_round", span("core.calibration"), 0)
	res.set("core.blend_s_per_round", blend, 0)
	res.set("tensor.gemm_flops_per_round", float64(win.gemmFlops)/float64(nRounds), 0)
	res.set("tensor.gemm_gflops", rp.gemmGFLOPS, 0)
	res.set("tensor.im2col_s_per_round", calls(0, rp.im2colS), 0)
	res.set("tensor.col2im_s_per_round", calls(1, rp.col2imS), 0)
	res.set("tensor.narrow_widen_s_per_round", calls(0, rp.convertFwdS)+calls(1, rp.convertBwdS)+
		rp.headConvertFwdS*modelFwd+rp.headConvertBwdS*modelBwd, 0)
	if win.poolGets > 0 {
		res.set("tensor.pool_miss_ratio", float64(win.poolMisses)/float64(win.poolGets), int(win.poolGets))
	}
	res.set("checkpoint.save_s", rp.ckptS, 0)
	res.set("checkpoint.bytes", rp.ckptBytes, 0)
	win.setRuntime(res, ts)
	_, clientSum := setClientTrain(res, tr, lo, hi, meanRound)

	// Attribution: what share of a client's training time the decorated
	// and replayed layers do not account for. The remainder is core's own
	// work (shuffles, batch copies, gradient clipping and zeroing, channel
	// concat/split, the t update) plus whatever the replays mis-estimate.
	attributed := tallied("nn.conv_fwd", "nn.conv_bwd", "nn.dense_fwd", "nn.dense_bwd",
		"nn.relu_fwd", "nn.relu_bwd", "nn.maxpool_fwd", "nn.maxpool_bwd", "nn.other_fwd", "nn.other_bwd",
		"nn.optimizer", "nn.flatten") + headFwd + headBwd + loss + blend
	res.set("trace.unattributed_frac", (clientSum/nClients-attributed)/meanRound, 0)
}

// ---- traced CIP client ---------------------------------------------------

// tracedCIPClient replays core.Client.TrainLocal step by step through the
// public core.StepIGeneratePerturbation / core.StepIILearnModel so each
// step gets a span. It shares the wrapped client's model, data and
// calibration split, holds its own optimizer of the same configuration,
// and draws from the very rng the wrapped client was built with (the
// wrapped client's own TrainLocal is never called, so the stream is not
// shared). TestTracedClientBitIdentical pins it to core.Client's update.
type tracedCIPClient struct {
	inner  *core.Client
	tr     *tracer
	actor  string
	opt    *nn.SGD
	topt   *tracedOptimizer
	rng    *rand.Rand
	layers []*tracedLayer
	flat   *tally
}

func newTracedCIPClient(tr *tracer, c *core.Client, rng *rand.Rand) *tracedCIPClient {
	cfg := c.Config()
	opt := &nn.SGD{LR: cfg.LR(0), Momentum: cfg.Momentum}
	t := &tracedCIPClient{
		inner: c, tr: tr, actor: fmt.Sprintf("client%d", c.ID()),
		opt: opt, topt: &tracedOptimizer{inner: opt, t: tr.tally("nn.optimizer")},
		rng: rng, flat: tr.tally("nn.flatten"),
	}
	if seq, ok := c.Model().Dual.Backbone.Net.(*nn.Sequential); ok {
		t.layers = traceLayers(tr, seq)
	}
	return t
}

func (c *tracedCIPClient) ID() int                 { return c.inner.ID() }
func (c *tracedCIPClient) NumSamples() int         { return c.inner.NumSamples() }
func (c *tracedCIPClient) Model() *core.CIPModel   { return c.inner.Model() }
func (c *tracedCIPClient) Data() *datasets.Dataset { return c.inner.Data() }

func (c *tracedCIPClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	m, data, cal, cfg := c.inner.Model(), c.inner.Data(), c.inner.Calibration(), c.inner.Config()
	root := c.tr.begin("fl.client_train", c.actor, round, -1)
	defer c.tr.end(root)

	t := time.Now()
	if err := nn.SetFlatParams(m.Params(), global); err != nil {
		return fl.Update{}, fmt.Errorf("benchmark: traced client %d: %w", c.ID(), err)
	}
	c.flat.since(t)
	c.opt.LR = cfg.LR(round)

	id := c.tr.begin("core.step1", c.actor, round, root)
	core.StepIGeneratePerturbation(m, data, cfg, c.rng)
	c.tr.end(id)

	if cfg.LambdaM != 0 && cfg.OriginalLossCap <= 0 && cal != nil {
		id = c.tr.begin("core.calibration", c.actor, round, root)
		cfg.OriginalLossCap = fl.MeanLoss(m.WithT(m.ZeroT()), cal, 64)
		c.tr.end(id)
	}
	var loss float64
	for e := 0; e < cfg.LocalEpochs; e++ {
		id = c.tr.begin("core.step2", c.actor, round, root)
		loss = core.StepIILearnModel(m, data, cfg, c.topt, c.rng)
		c.tr.end(id)
	}
	t = time.Now()
	params := nn.FlattenParams(m.Params())
	c.flat.since(t)
	return fl.Update{Params: params, NumSamples: data.Len(), TrainLoss: loss}, nil
}

// layerCalls reads every traced client's per-slot forward and backward
// call counts: [client][0=fwd,1=bwd][slot].
func layerCalls(inst *cipInstance) [][2][]int64 {
	out := make([][2][]int64, len(inst.clients))
	for i, c := range inst.clients {
		for _, l := range c.(*tracedCIPClient).layers {
			out[i][0] = append(out[i][0], l.nFwd.Load())
			out[i][1] = append(out[i][1], l.nBwd.Load())
		}
	}
	return out
}
