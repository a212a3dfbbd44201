package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// Replays time one layer's public function alone, at the exact shapes the
// workload uses; the caller multiplies by how often a round calls it.
// They run after the timed rounds, inside the traced run's second half.

const batch = 32

type cipReplay struct {
	headFwdS, headBwdS float64 // the dual-channel head (*nn.Dense), per call
	lossS, blendS      float64 // nn.SoftmaxCrossEntropy, core.Blend, per call
	gemmGFLOPS         float64 // the workload's largest forward GEMM
	// Per backbone slot, seconds per call (0 where the slot is not a conv
	// or, for the conversions, under f64).
	im2colS, col2imS                 []float64
	convertFwdS, convertBwdS         []float64
	headConvertFwdS, headConvertBwdS float64
	ckptS, ckptBytes                 float64
}

// gemmCost is one forward GEMM a·bᵀ: [m,k]·[n,k]ᵀ.
type gemmCost struct{ m, k, n int }

func replayCIP(cfg runConfig, spec cipSpec, inst *cipInstance, budget time.Duration) cipReplay {
	var rp cipReplay
	slice := budget / 8
	rng := rand.New(rand.NewSource(cfg.seed))
	c0 := inst.clients[0].(*tracedCIPClient)
	m := c0.Model()
	x, y := c0.Data().Batch(0, batch)

	// tensor.narrow_widen_s_per_round is an ESTIMATE, not a measurement: the
	// tensor package exposes no conversion counter, so this prices what
	// converting every operand and product of every f64-facing GEMM would
	// cost as whole-matrix NarrowSlice/WidenSlice passes. The real mixed
	// path fuses part of that into packing, so the figure bounds the
	// conversion share from above and does not move when that path
	// changes; nn.dense_*_s_per_round is where such a change shows.
	var narrowNS, widenNS float64
	if spec.precision == tensor.F32 {
		src := make([]float64, 1<<20)
		dst := make([]float32, 1<<20)
		narrowNS = timeIt(slice/2, func() { tensor.NarrowSlice(dst, src) }) / float64(len(src))
		widenNS = timeIt(slice/2, func() { tensor.WidenSlice(src, dst) }) / float64(len(src))
	}
	// convert prices one layer's forward and backward GEMMs at that rate:
	// forward a[m,k] and b[n,k] in, [m,n] out; backward two products (dW
	// and dx) over the same three matrices.
	convert := func(g gemmCost) (fwd, bwd float64) {
		a, b, out := float64(g.m*g.k), float64(g.n*g.k), float64(g.m*g.n)
		fwd = (a+b)*narrowNS + out*widenNS
		bwd = (out+a)*narrowNS + b*widenNS + (out+b)*narrowNS + a*widenNS
		return fwd, bwd
	}

	var biggest gemmCost
	consider := func(g gemmCost) {
		if g.m*g.k*g.n > biggest.m*biggest.k*biggest.n {
			biggest = g
		}
	}
	n := len(c0.layers)
	rp.im2colS, rp.col2imS = make([]float64, n), make([]float64, n)
	rp.convertFwdS, rp.convertBwdS = make([]float64, n), make([]float64, n)
	convSlots := 0
	for _, l := range c0.layers {
		if _, ok := l.inner.(*nn.Conv2D); ok {
			convSlots++
		}
	}
	for j, l := range c0.layers {
		switch layer := l.inner.(type) {
		case *nn.Conv2D:
			g := layer.Geom
			rows, k := batch*g.OutH()*g.OutW(), g.InC*g.KH*g.KW
			in := tensor.New(batch, g.InC, g.InH, g.InW)
			in.RandUniform(rng, 0, 1)
			cols := tensor.New(rows, k)
			per := slice / time.Duration(2*convSlots)
			rp.im2colS[j] = timeIt(per, func() { tensor.Im2ColInto(cols, in, g) })
			rp.col2imS[j] = timeIt(per, func() { tensor.Col2ImInto(in, cols, batch, g) })
			cost := gemmCost{rows, k, layer.OutC}
			rp.convertFwdS[j], rp.convertBwdS[j] = convert(cost)
			consider(cost)
		case *nn.Dense:
			cost := gemmCost{batch, layer.In, layer.Out}
			rp.convertFwdS[j], rp.convertBwdS[j] = convert(cost)
			consider(cost)
		}
	}

	// The head is a concrete *nn.Dense field, so no decorator fits; an
	// identically shaped layer stands in.
	head := nn.NewDense(rng, m.Dual.Head.In, m.Dual.Head.Out)
	hx := tensor.New(batch, head.In)
	hx.RandNormal(rng, 0, 1)
	hg := tensor.New(batch, head.Out)
	hg.RandNormal(rng, 0, 1)
	_, hc := head.Forward(hx, true)
	rp.headFwdS = timeIt(slice, func() { head.Forward(hx, true) })
	rp.headBwdS = timeIt(slice, func() { head.Backward(hc, hg) })
	headCost := gemmCost{batch, head.In, head.Out}
	rp.headConvertFwdS, rp.headConvertBwdS = convert(headCost)
	consider(headCost)

	logits := tensor.New(batch, head.Out)
	logits.RandNormal(rng, 0, 1)
	rp.lossS = timeIt(slice, func() { nn.SoftmaxCrossEntropy(logits, y) })
	rp.blendS = timeIt(slice, func() { core.Blend(x, m.T, m.Alpha, m.Lo, m.Hi) })

	a := tensor.New(biggest.m, biggest.k)
	a.RandNormal(rng, 0, 1)
	b := tensor.New(biggest.n, biggest.k)
	b.RandNormal(rng, 0, 1)
	dst := tensor.New(biggest.m, biggest.n)
	bias := make([]float64, biggest.n)
	s := timeIt(slice, func() { tensor.MatMulTransBBiasInto(dst, a, b, bias) })
	rp.gemmGFLOPS = 2 * float64(biggest.m*biggest.k*biggest.n) / s / 1e9

	rp.ckptS, rp.ckptBytes = replayCheckpoint(cfg, inst.srv.Global(), slice)
	return rp
}

// replayCheckpoint times a durable save of the workload's state. It is a
// replay on purpose: an fsync on a shared disk inside the timed rounds
// would put the disk's mood into every round.
func replayCheckpoint(cfg runConfig, global []float64, budget time.Duration) (s, bytes float64) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 0, 0
	}
	mgr := &checkpoint.Manager{Path: filepath.Join(cfg.outDir, "replay-"+cfg.workload+".ckpt")}
	snap := &checkpoint.Snapshot{State: fl.ServerState{NextRound: 1, Global: global}}
	var failed bool
	s = timeIt(budget, func() {
		if err := mgr.Save(snap); err != nil {
			failed = true
		}
	})
	if st, err := os.Stat(mgr.Path); err == nil {
		bytes = float64(st.Size())
	}
	os.Remove(mgr.Path)       //nolint:errcheck — scratch file in the ignored out dir
	os.Remove(mgr.PrevPath()) //nolint:errcheck
	if failed {
		return 0, 0
	}
	return s, bytes
}

type fedReplay struct {
	validateS, foldS, finalizeS                float64
	encodeRoundS, decodeRoundS                 float64
	encodeRound2S, decodeRound2S               float64
	encodeUpdateS, decodeUpdateS               float64
	encodePartialS, decodePartialS             float64
	topkS, densifyS, ratio                     float64
	sketchAddS, sketchMergeS, ckptS, ckptBytes float64
}

func replayFed(cfg runConfig, tree bool, inst *fedInstance, global []float64, budget time.Duration) (fedReplay, error) {
	var rp fedReplay
	slice := budget / 16
	dim := len(global)
	c := inst.clients[0]
	raw := make([]float64, dim)
	c.fill(raw, 0, global)
	dense := fl.Update{ClientID: c.id, NumSamples: c.samples, TrainLoss: 1, Params: raw}

	// fl: validation, the weighted fold and the final division.
	rp.validateS = timeIt(slice, func() { fl.ValidateUpdate(dense, dim) }) //nolint:errcheck — timing only
	fold := fl.NewFold(dim)
	rp.foldS = timeIt(slice, func() { fold.Fold(dense) }) //nolint:errcheck
	out := make([]float64, dim)
	rp.finalizeS = timeIt(slice, func() { fold.FinalizeInto(out) }) //nolint:errcheck

	// wire: round broadcast and update frames, both directions.
	roundFrame := wire.AppendRoundFrame(nil, 0, -1, global)
	rp.encodeRoundS = timeIt(slice, func() { roundFrame = wire.AppendRoundFrame(roundFrame[:0], 0, -1, global) })
	rp.decodeRoundS = timeIt(slice, func() { wire.DecodeRound(roundFrame[wire.HeaderLen:]) }) //nolint:errcheck

	mode := compress.None
	var delta *compress.Delta
	if tree {
		mode = compress.TopKQ8
		ccfg := compress.Config{Mode: mode, TopKFrac: cfg.sz.topKFrac}
		d := make([]float64, dim)
		for i := range d {
			d[i] = raw[i] - global[i]
		}
		resid := make([]float64, dim)
		var err error
		if delta, _, err = ccfg.CompressEF(d, resid); err != nil {
			return rp, err
		}
		rp.topkS = timeIt(slice, func() { ccfg.CompressEF(d, resid) }) //nolint:errcheck
	}
	wireUpdate := dense
	if tree {
		wireUpdate.Params = nil
	}
	updFrame, err := wire.AppendUpdateFrame(nil, wireUpdate, delta, mode)
	if err != nil {
		return rp, err
	}
	rp.encodeUpdateS = timeIt(slice, func() {
		updFrame, _ = wire.AppendUpdateFrame(updFrame[:0], wireUpdate, delta, mode)
	})
	decoded, err := wire.DecodeUpdate(mode, updFrame[wire.HeaderLen:])
	if err != nil {
		return rp, err
	}
	rp.decodeUpdateS = timeIt(slice, func() { wire.DecodeUpdate(mode, updFrame[wire.HeaderLen:]) }) //nolint:errcheck

	if tree {
		denseFrame, err := wire.AppendUpdateFrame(nil, dense, nil, compress.None)
		if err != nil {
			return rp, err
		}
		rp.ratio = float64(len(denseFrame)) / float64(len(updFrame))
		// The leaf's side of a sparse update: validate and densify.
		rp.densifyS = timeIt(slice, func() { fl.Densify(decoded, global) }) //nolint:errcheck

		r2 := wire.Round2{Round: 0, Durable: -1, SketchCap: 64, Params: global}
		r2Frame := wire.AppendRound2Frame(nil, r2)
		rp.encodeRound2S = timeIt(slice, func() { r2Frame = wire.AppendRound2Frame(r2Frame[:0], r2) })
		rp.decodeRound2S = timeIt(slice, func() { wire.DecodeRound2(r2Frame[wire.HeaderLen:]) }) //nolint:errcheck

		// A leaf's partial: the fold's sums plus a one-row sketch.
		rp.sketchAddS = timeIt(slice, func() { robust.NewSketch(64).Add(robust.KeyClient(c.id), raw) })
		sk := robust.NewSketch(64)
		sk.Add(robust.KeyClient(c.id), raw)
		p := fold.PartialView(0, 0)
		p.ExpectWeight, p.Sketch = p.Weight, sk
		pFrame := wire.AppendPartial2Frame(nil, p)
		rp.encodePartialS = timeIt(slice, func() { pFrame = wire.AppendPartial2Frame(pFrame[:0], p) })
		rp.decodePartialS = timeIt(slice, func() { wire.DecodePartial2(pFrame[wire.HeaderLen:]) }) //nolint:errcheck
		rp.sketchMergeS = timeIt(slice, func() { robust.NewSketch(64).Merge(sk) })                 //nolint:errcheck
	}
	rp.ckptS, rp.ckptBytes = replayCheckpoint(cfg, global, slice)
	return rp, nil
}
