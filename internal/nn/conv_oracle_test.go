package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/tensor"
)

// The reference for Conv2D is the row-major lowering it used before its
// columns went channel-major: im2col into one [N·OH·OW, K] matrix (a row
// per output position), one GEMM against the kernel with the bias in its
// epilogue, and a reorder of the [N·OH·OW, OutC] product into NCHW; the
// backward reorders the output gradient into that row layout, adds
// gmᵀ·cols into dW, sums dB row by row, and scatters gm·W back through
// col2im, row by row.
//
// The GEMMs are the tensor package's own. Their row count is padded to a
// whole number of micro-tiles with zero rows, which are dropped again:
// every geometry the models use has N·OH·OW a multiple of the tile height,
// so there the padding changes nothing, and elsewhere it keeps the
// full-tile arithmetic for the last rows instead of the scalar remainder
// the row-major lowering sent them to. The channel-major lowering has no
// scalar remainder left.
const oracleTileRows = 4

type convOracle struct {
	c    *Conv2D
	rows int // N·OH·OW rounded up to whole tiles
	n    int
}

func newConvOracle(c *Conv2D, n int) convOracle {
	s := c.Geom.OutH() * c.Geom.OutW()
	rows := (n*s + oracleTileRows - 1) / oracleTileRows * oracleTileRows
	return convOracle{c: c, rows: rows, n: n}
}

// im2colRows lowers x into the row-major column matrix [rows, K]; rows
// past N·OH·OW are zero.
func (o convOracle) im2colRows(x *tensor.Tensor) *tensor.Tensor {
	g := o.c.Geom
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	cols := tensor.New(o.rows, k)
	for b := 0; b < o.n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((b*oh+oy)*ow+ox)*k:][:k]
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								row[(c*g.KH+ky)*g.KW+kx] = x.At(b, c, iy, ix)
							}
						}
					}
				}
			}
		}
	}
	return cols
}

// col2imRows scatters row-major grad columns into NCHW, output position by
// output position.
func (o convOracle) col2imRows(cols *tensor.Tensor) *tensor.Tensor {
	g := o.c.Geom
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	dx := tensor.New(o.n, g.InC, g.InH, g.InW)
	for b := 0; b < o.n; b++ {
		img := dx.Data[b*g.InC*g.InH*g.InW:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((b*oh+oy)*ow+ox)*k:][:k]
				for ky := 0; ky < g.KH; ky++ {
					for c := 0; c < g.InC; c++ {
						for kx := 0; kx < g.KW; kx++ {
							iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								img[(c*g.InH+iy)*g.InW+ix] += row[(c*g.KH+ky)*g.KW+kx]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

func (o convOracle) forward(x *tensor.Tensor) (out, cols *tensor.Tensor) {
	c := o.c
	s := c.Geom.OutH() * c.Geom.OutW()
	cols = o.im2colRows(x)
	prod := tensor.New(o.rows, c.OutC)
	tensor.MatMulTransBBiasInto(prod, cols, c.W.Value, c.B.Value.Data)
	out = tensor.New(o.n, c.OutC, c.Geom.OutH(), c.Geom.OutW())
	for b := 0; b < o.n; b++ {
		for p := 0; p < s; p++ {
			for oc, v := range prod.Data[(b*s+p)*c.OutC:][:c.OutC] {
				out.Data[(b*c.OutC+oc)*s+p] = v
			}
		}
	}
	return out, cols
}

// backward adds into c's Param.Grad what want asks for and returns dX
// (nil without InputGrad).
func (o convOracle) backward(cols, grad *tensor.Tensor, want Grads) *tensor.Tensor {
	c := o.c
	s := c.Geom.OutH() * c.Geom.OutW()
	gm := tensor.New(o.rows, c.OutC)
	for b := 0; b < o.n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < s; p++ {
				gm.Data[(b*s+p)*c.OutC+oc] = grad.Data[(b*c.OutC+oc)*s+p]
			}
		}
	}
	if want&ParamGrads != 0 {
		tensor.MatMulTransAAddInto(c.W.Grad, gm, cols)
		for r := 0; r < o.n*s; r++ {
			for oc, v := range gm.Data[r*c.OutC:][:c.OutC] {
				c.B.Grad.Data[oc] += v
			}
		}
	}
	if want&InputGrad == 0 {
		return nil
	}
	dcols := tensor.New(o.rows, cols.Shape[1])
	tensor.MatMulInto(dcols, gm, c.W.Value)
	return o.col2imRows(dcols)
}

type convCase struct {
	name string
	g    tensor.ConvGeom
	outC int
}

// convOracleCases: the three cip_vgg_f64 convolutions at their own widths,
// then small geometries (stride 2, no padding, a 1×1 kernel, KH ≠ KW,
// non-square inputs, an odd position count) at every width in {1, 10, 14}.
func convOracleCases() []convCase {
	cases := []convCase{
		{"vgg1", tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 10},
		{"vgg2", tensor.ConvGeom{InC: 10, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 10},
		{"vgg3", tensor.ConvGeom{InC: 10, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 14},
	}
	small := []struct {
		name string
		g    tensor.ConvGeom
	}{
		{"stride2", tensor.ConvGeom{InC: 3, InH: 9, InW: 9, KH: 3, KW: 3, Stride: 2, Pad: 1}},
		{"pad0", tensor.ConvGeom{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 0}},
		{"1x1", tensor.ConvGeom{InC: 5, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 1, Pad: 0}},
		{"3x2", tensor.ConvGeom{InC: 2, InH: 8, InW: 8, KH: 3, KW: 2, Stride: 1, Pad: 1}},
		{"nonsquare", tensor.ConvGeom{InC: 3, InH: 6, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{"odd", tensor.ConvGeom{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 2}},
	}
	for _, s := range small {
		for _, oc := range []int{1, 10, 14} {
			cases = append(cases, convCase{fmt.Sprintf("%s/oc%d", s.name, oc), s.g, oc})
		}
	}
	return cases
}

// convResult is one pass's four gradients and output.
type convResult struct{ out, dx, dw, db []float64 }

// runConvPair runs Conv2D and the oracle over the same input, output
// gradient and initial Param.Grad, for one want.
func runConvPair(c *Conv2D, x, grad *tensor.Tensor, want Grads) (got, ref convResult) {
	o := newConvOracle(c, x.Shape[0])
	seed := func() {
		c.W.Grad.Fill(0.25) // a nonzero start: dW adds into what is there
		c.B.Grad.Fill(-0.5)
	}
	take := func(out, dx *tensor.Tensor) convResult {
		r := convResult{out: out.Data, dw: append([]float64(nil), c.W.Grad.Data...),
			db: append([]float64(nil), c.B.Grad.Data...)}
		if dx != nil {
			r.dx = dx.Data
		}
		return r
	}
	seed()
	out, cache := c.Forward(x, true)
	got = take(out, c.BackwardFor(cache, grad, want))
	seed()
	out, cols := o.forward(x)
	ref = take(out, o.backward(cols, grad, want))
	return got, ref
}

func convInputs(c *Conv2D, n int, seed int64) (x, grad *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	g := c.Geom
	x = tensor.New(n, g.InC, g.InH, g.InW)
	x.RandNormal(rng, 0, 1)
	grad = tensor.New(n, c.OutC, g.OutH(), g.OutW())
	grad.RandNormal(rng, 0, 1)
	for i := range grad.Data { // ReLU-gated gradients are often exactly zero
		if rng.Intn(3) == 0 {
			grad.Data[i] = 0
		}
	}
	c.B.Value.RandNormal(rng, 0, 0.1)
	return x, grad
}

// TestConv2DMatchesRowMajorOracle: in f64 the channel-major Conv2D
// produces its output, dX, dW and dB bit for bit as the row-major
// lowering did, for every want, batch size and worker count.
func TestConv2DMatchesRowMajorOracle(t *testing.T) {
	batches := []int{1, 7, 32}
	for _, cc := range convOracleCases() {
		for _, n := range batches {
			if testing.Short() && n == 32 && cc.g.InH == 32 {
				continue
			}
			for _, workers := range []int{1, 4} {
				for _, want := range []Grads{ParamGrads, InputGrad, AllGrads} {
					name := fmt.Sprintf("%s/n%d/w%d/want%d", cc.name, n, workers, want)
					prev := runtime.GOMAXPROCS(workers)
					c := NewConv2D(rand.New(rand.NewSource(int64(n))), cc.g, cc.outC)
					x, grad := convInputs(c, n, int64(n*31+cc.outC))
					got, ref := runConvPair(c, x, grad, want)
					runtime.GOMAXPROCS(prev)
					for _, f := range []struct {
						what     string
						got, ref []float64
					}{{"out", got.out, ref.out}, {"dX", got.dx, ref.dx}, {"dW", got.dw, ref.dw}, {"dB", got.db, ref.db}} {
						if i := firstBitDiff(f.got, f.ref); i >= 0 {
							t.Fatalf("%s: %s differs from the row-major lowering at %d: %v vs %v",
								name, f.what, i, f.got[i], f.ref[i])
						}
					}
				}
			}
		}
	}
}

// TestConv2DMatchesRowMajorOracleF32: under the f32 tier both lowerings
// agree within the tier's tolerance, 1e-4·√k for a product with inner
// dimension k, relative to the value's magnitude. The output, dX and dB
// keep their bits: the output and dX are the same f32 chains over the same
// k in both, and dB is summed in float64. dW moves: the row-major lowering
// summed all N·OH·OW terms of an element in f32 (the rank-1 path), the
// channel-major one sums f32 kc-block partials in float64.
func TestConv2DMatchesRowMajorOracleF32(t *testing.T) {
	defer tensor.SetPrecision(tensor.CurrentPrecision())
	tensor.SetPrecision(tensor.F32)
	moved := map[string]bool{}
	for _, cc := range convOracleCases() {
		for _, n := range []int{1, 7, 32} {
			if testing.Short() && n == 32 && cc.g.InH == 32 {
				continue
			}
			c := NewConv2D(rand.New(rand.NewSource(int64(n))), cc.g, cc.outC)
			x, grad := convInputs(c, n, int64(n*31+cc.outC))
			got, ref := runConvPair(c, x, grad, AllGrads)
			g := cc.g
			for _, f := range []struct {
				what     string
				got, ref []float64
				k        int
			}{
				{"out", got.out, ref.out, g.InC * g.KH * g.KW},
				{"dX", got.dx, ref.dx, cc.outC * g.KH * g.KW},
				{"dW", got.dw, ref.dw, n * g.OutH() * g.OutW()},
				{"dB", got.db, ref.db, 1},
			} {
				if firstBitDiff(f.got, f.ref) >= 0 {
					moved[f.what] = true
				}
				if d, tol := maxRelDiff(f.got, f.ref), 1e-4*math.Sqrt(float64(f.k)); d > tol {
					t.Fatalf("%s/n%d: %s differs from the row-major lowering by %.3g relative, tolerance %.3g",
						cc.name, n, f.what, d, tol)
				}
			}
		}
	}
	for _, what := range []string{"out", "dX", "dB"} {
		if moved[what] {
			t.Errorf("f32 %s moved bits against the row-major lowering", what)
		}
	}
	if !moved["dW"] {
		t.Error("f32 dW kept every bit: the doc comment above is stale")
	}
}

// TestConv2DCacheIsSelfContained: a forward pass on batch B between batch
// A's forward and backward leaves A's gradients untouched — the cache
// holds A's input, not anything the layer or its scratch reuses — so
// backward on A's cache equals a fresh forward+backward of A bit for bit,
// serially and fanned out.
func TestConv2DCacheIsSelfContained(t *testing.T) {
	g := tensor.ConvGeom{InC: 10, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	for _, workers := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(workers)
		c := NewConv2D(rand.New(rand.NewSource(4)), g, 14)
		xa, ga := convInputs(c, 16, 5)
		xb, _ := convInputs(c, 16, 6)
		run := func(interleave bool) convResult {
			ZeroGrads(c.Params())
			out, cache := c.Forward(xa, true)
			out = out.Clone()
			if interleave {
				c.Forward(xb, true)
			}
			dx := c.Backward(cache, ga)
			return convResult{out: out.Data, dx: dx.Data,
				dw: append([]float64(nil), c.W.Grad.Data...), db: append([]float64(nil), c.B.Grad.Data...)}
		}
		want, got := run(false), run(true)
		runtime.GOMAXPROCS(prev)
		for _, f := range []struct {
			what     string
			got, ref []float64
		}{{"out", got.out, want.out}, {"dX", got.dx, want.dx}, {"dW", got.dw, want.dw}, {"dB", got.db, want.db}} {
			if i := firstBitDiff(f.got, f.ref); i >= 0 {
				t.Fatalf("GOMAXPROCS=%d: %s after an interleaved forward differs at %d: %v vs %v",
					workers, f.what, i, f.got[i], f.ref[i])
			}
		}
	}
}

// TestConv2DWarmPassAllocatesNothing: a forward plus full backward at the
// cip_vgg_f64 layer-2 shape, under a warmed workspace, makes no heap
// allocation, serially or fanned out over images: the per-image loops take
// no tensor header, closure or task per image.
func TestConv2DWarmPassAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop tasks at random")
	}
	g := tensor.ConvGeom{InC: 10, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D(rand.New(rand.NewSource(1)), g, 10)
	ws := &tensor.Workspace{}
	srcX, srcG := convInputs(c, 16, 3)
	pass := func() {
		x := ws.New(srcX.Shape...)
		copy(x.Data, srcX.Data)
		grad := ws.New(srcG.Shape...)
		copy(grad.Data, srcG.Data)
		_, cache := c.Forward(x, true)
		c.Backward(cache, grad)
		ws.Reset()
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1, so the fanned-out case
	// counts mallocs itself.
	for _, workers := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(workers)
		for i := 0; i < 3; i++ {
			pass()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			pass()
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
			t.Errorf("GOMAXPROCS=%d: warmed conv forward+backward made %d heap allocations", workers, n)
		}
	}
}

func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func maxRelDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i])/(1+math.Abs(b[i])))
	}
	return d
}
