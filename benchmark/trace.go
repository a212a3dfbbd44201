package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// Tracing from outside: every span and counter here is taken by a
// decorator this package puts at a public seam of the system (an nn.Layer
// slot, the nn.Optimizer argument, an fl.Client, a dialed net.Conn, a
// robust.Aggregator, the coordinator's AfterRound hook). Nothing in the
// program under test knows it is being traced. A nil *tracer means
// tracing is off and no timing decorator is installed (rootRule stays, as
// a counter: it is an output check).

// span is one coarse interval: a round, one client's local training, a
// CIP step, a robust aggregation. Parent is an index into the span list
// (-1 for a root), so a round's spans form a tree and a layer's self time
// is its span minus its children.
type span struct {
	Name    string `json:"name"`
	Actor   string `json:"actor"`
	Round   int    `json:"round"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tally accumulates the calls too frequent to keep as spans (a layer's
// Forward runs hundreds of times a round): call count and busy time.
type tally struct{ n, ns, bytes atomic.Int64 }

func (t *tally) since(start time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

type tallyValue struct{ N, NS, Bytes int64 }

type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	tallies map[string]*tally
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), tallies: make(map[string]*tally)}
}

// tally returns the named accumulator, creating it on first use.
// Decorators resolve theirs once at construction, not per call.
func (tr *tracer) tally(name string) *tally {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.tallies[name]
	if t == nil {
		t = &tally{}
		tr.tallies[name] = t
	}
	return t
}

func (tr *tracer) begin(name, actor string, round, parent int) int {
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Actor: actor, Round: round, StartNS: now, Parent: parent})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans[id].EndNS = now
	tr.mu.Unlock()
}

// snapshot copies every tally; per-phase figures are differences of two.
func (tr *tracer) snapshot() map[string]tallyValue {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]tallyValue, len(tr.tallies))
	for k, t := range tr.tallies {
		out[k] = tallyValue{t.n.Load(), t.ns.Load(), t.bytes.Load()}
	}
	return out
}

func tallyDelta(after, before map[string]tallyValue) map[string]tallyValue {
	out := make(map[string]tallyValue, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = tallyValue{a.N - b.N, a.NS - b.NS, a.Bytes - b.Bytes}
	}
	return out
}

// spanSeconds sums the durations of the named spans whose round lies in
// [lo, hi).
func (tr *tracer) spanSeconds(name string, lo, hi int) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name && s.Round >= lo && s.Round < hi {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// perRound groups the named spans' durations by round (rounds lo..hi-1).
func (tr *tracer) perRound(name string, lo, hi int) [][]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([][]float64, hi-lo)
	for _, s := range tr.spans {
		if s.Name == name && s.Round >= lo && s.Round < hi {
			out[s.Round-lo] = append(out[s.Round-lo], float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// write dumps the spans and tallies kept in memory during the run.
func (tr *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	doc := struct {
		Workload string                `json:"workload"`
		Spans    []span                `json:"spans"`
		Tallies  map[string]tallyValue `json:"tallies"`
	}{Workload: workload, Spans: tr.spans, Tallies: make(map[string]tallyValue)}
	for k, t := range tr.tallies {
		doc.Tallies[k] = tallyValue{t.n.Load(), t.ns.Load(), t.bytes.Load()}
	}
	raw, err := json.Marshal(doc)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}

// ---- nn.Layer decorator ------------------------------------------------

// layerKind names the tally family a backbone layer reports under.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "nn.conv"
	case *nn.Dense:
		return "nn.dense"
	case nn.ReLU:
		return "nn.relu"
	case nn.MaxPool2D:
		return "nn.maxpool"
	default:
		return "nn.other"
	}
}

// tracedLayer times one slot of a backbone's nn.Sequential. fwd and bwd
// are shared by every layer of one kind; nFwd and nBwd are this slot's
// own call counts, which the replays multiply isolated timings by.
type tracedLayer struct {
	inner      nn.Layer
	fwd, bwd   *tally
	nFwd, nBwd atomic.Int64
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Cache) {
	t := time.Now()
	out, c := l.inner.Forward(x, train)
	l.fwd.since(t)
	l.nFwd.Add(1)
	return out, c
}

func (l *tracedLayer) Backward(cache nn.Cache, grad *tensor.Tensor) *tensor.Tensor {
	t := time.Now()
	out := l.inner.Backward(cache, grad)
	l.bwd.since(t)
	l.nBwd.Add(1)
	return out
}

func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

// traceLayers swaps a decorator into every slot of seq and returns the
// decorators in slot order.
func traceLayers(tr *tracer, seq *nn.Sequential) []*tracedLayer {
	out := make([]*tracedLayer, len(seq.Layers))
	for i, l := range seq.Layers {
		kind := layerKind(l)
		tl := &tracedLayer{
			inner: l,
			fwd:   tr.tally(kind + "_fwd"),
			bwd:   tr.tally(kind + "_bwd"),
		}
		seq.Layers[i] = tl
		out[i] = tl
	}
	return out
}

// tracedOptimizer times nn.Optimizer.Step; core.StepIILearnModel takes
// the optimizer as an interface, so the decorator rides that argument.
type tracedOptimizer struct {
	inner nn.Optimizer
	t     *tally
}

func (o *tracedOptimizer) Step(params []*nn.Param) {
	t := time.Now()
	o.inner.Step(params)
	o.t.since(t)
}

// ---- robust.Aggregator decorator ----------------------------------------

// rootRule wraps the tree root's robust rule. Tracing or not, it counts
// the rounds whose merged sketch still held one exact row per client (an
// output check every run makes); with a tracer it also records a span.
type rootRule struct {
	inner    robust.Aggregator
	tr       *tracer // nil: count only
	wantRows int
	round    atomic.Int64
	exact    atomic.Int64
}

func (a *rootRule) Name() string           { return a.inner.Name() }
func (a *rootRule) Contributors(n int) int { return a.inner.Contributors(n) }

func (a *rootRule) Aggregate(center []float64, params [][]float64, w []float64) ([]float64, robust.Report, error) {
	round := int(a.round.Add(1)) - 1
	if len(params) == a.wantRows {
		a.exact.Add(1)
	}
	if a.tr == nil {
		return a.inner.Aggregate(center, params, w)
	}
	id := a.tr.begin("robust.aggregate", "root", round, -1)
	defer a.tr.end(id)
	return a.inner.Aggregate(center, params, w)
}

// ---- net.Conn decorator ---------------------------------------------------

// tracedConn counts bytes and times Read and Write on one dialed
// connection. firstRead is when the first Read returned: on the dialing
// side that is the welcome arriving, the end of the handshake.
type tracedConn struct {
	net.Conn
	rd, wr    *tally
	tr        *tracer
	dialed    int64        // ns since tracer t0 when the dial began
	firstRead atomic.Int64 // ns since tracer t0; 0 until set
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.rd.since(t)
	c.rd.bytes.Add(int64(n))
	c.firstRead.CompareAndSwap(0, int64(time.Since(c.tr.t0)))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.wr.since(t)
	c.wr.bytes.Add(int64(n))
	return n, err
}

// tracedDial returns a transport Dial hook whose connections report under
// link+".read" / link+".write", and a func giving the longest handshake
// (dial start to first byte back) seen on them.
func tracedDial(tr *tracer, link string) (dial func(string) (net.Conn, error), handshake func() float64) {
	var mu sync.Mutex
	var conns []*tracedConn
	dial = func(addr string) (net.Conn, error) {
		start := int64(time.Since(tr.t0))
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		tc := &tracedConn{Conn: c, rd: tr.tally(link + ".read"), wr: tr.tally(link + ".write"), tr: tr, dialed: start}
		mu.Lock()
		conns = append(conns, tc)
		mu.Unlock()
		return tc, nil
	}
	handshake = func() float64 {
		mu.Lock()
		defer mu.Unlock()
		var longest float64
		for _, c := range conns {
			if fr := c.firstRead.Load(); fr != 0 {
				longest = max(longest, float64(fr-c.dialed)/1e9)
			}
		}
		return longest
	}
	return dial, handshake
}
