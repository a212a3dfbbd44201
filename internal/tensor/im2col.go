package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ConvGeom describes the geometry of a 2-D convolution. Images are stored
// NCHW (batch, channels, height, width) and kernels OIHW.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	Stride, Pad   int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate returns an error when the geometry is degenerate.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive dims: %+v", g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", g.Stride)
	}
	if g.Pad < 0 {
		return fmt.Errorf("tensor: conv pad must be non-negative, got %d", g.Pad)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry yields empty output: %+v", g)
	}
	return nil
}

// The convolution lowering is channel-major. One image's columns are a
// [K, S] block, K = InC·KH·KW kernel taps by S = OutH·OutW output
// positions: row (c, ky, kx) holds, for every output position in raster
// order, the input pixel that tap reads (zero where it falls in the
// padding). Im2Col lays a batch's columns out as N such blocks back to
// back, [N, K, S]; the convolution itself never holds more than one
// image's block at a time.
//
//   - A tap row is one routine (tapRow). When the output keeps the input
//     width at stride 1 — every model convolution — output position
//     p = oy·W + ox reads input pixel p + (ky−Pad)·W + (kx−Pad), so the
//     row is one shifted copy of the channel plane with the columns that
//     wrapped round an edge and the rows outside the image zeroed. Any
//     other geometry copies a contiguous (strided when Stride > 1) run of
//     one input row per output row and zero-fills its ends.
//   - col2im adds the row runs back. Taps are walked in reverse (ky, kx)
//     order, so every pixel sums its contributions in ascending
//     output-position order, which the nn package's row-major reference
//     (TestConv2DMatchesRowMajorOracle) pins bit for bit.
//   - The forward lowers image b into a per-worker scratch and writes
//     out_b = W·cols_b + bias, [OutC, S]: image b's NCHW output, in place.
//     The input gradient writes dcols_b = Wᵀ·g_b into the scratch, with
//     the output gradient g_b [OutC, S] read in place, and col2im
//     scatters it. The weight gradient fans out over rows of dWᵀ: for
//     each image in order a worker regenerates its rows' taps from x_b
//     into the scratch and accumulates cols_b·g_bᵀ into them. The
//     backward therefore reads the layer's input, which must not change
//     between the forward and the backward.
//
// Scratch is pooled and sized for one image's [K, S] block, or for one
// worker's rows of dWᵀ [rows, S], so it stays in cache while the GEMM
// reads it. Every per-image step fans out over images, and the weight gradient
// over rows of dWᵀ, through one pooled convTask per call; nothing is
// allocated per image. Each per-image product is an inner GEMM
// (gemmShape.inner): serial, untimed, and with its row remainder on the
// tile kernel, so every element of a product is one multiply-add chain in
// k order, rounded the same in every row and whatever the row blocking.
// The layer's product is recorded as one GEMM of the whole batch's
// volume, so the GEMM counters see one product per layer pass, as for a
// dense layer.

// taps is K, the row count of one image's column block.
func (g ConvGeom) taps() int { return g.InC * g.KH * g.KW }

// span returns the output columns [lo, hi) at which tap column kx lands
// inside an input row: 0 ≤ ox·Stride + kx − Pad < InW. ow is g.OutW(),
// which callers hoist out of their loops.
func (g ConvGeom) span(kx, ow int) (lo, hi int) {
	off := kx - g.Pad
	if g.Stride == 1 { // the model's convolutions: no division
		lo = min(ow, max(0, -off))
		return lo, max(lo, min(ow, g.InW-off))
	}
	if off < 0 {
		lo = min(ow, (-off+g.Stride-1)/g.Stride)
	}
	if last := g.InW - 1 - off; last >= 0 {
		hi = min(ow, last/g.Stride+1)
	}
	return lo, max(lo, hi)
}

// Im2Col lowers a batch of NCHW images x (shape [N, C, H, W]) into its
// columns, shape [N, C·KH·KW, OutH·OutW], so that each image's
// convolution becomes one matmul against the reshaped kernel.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	return Im2ColInto(NewLike(x, x.Shape[0], g.taps(), g.OutH()*g.OutW()), x, g)
}

// Im2ColInto is Im2Col writing into a caller-supplied destination. Only
// its volume (N·C·KH·KW·OutH·OutW) is checked, not its shape: the layout
// written is Im2Col's whatever shape cols carries. Every element is
// overwritten, so an uninitialized buffer is fine. Returns cols.
func Im2ColInto(cols, x *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	checkVolume("Im2ColInto", cols, n*g.taps()*g.OutH()*g.OutW())
	t := newConvTask(convIm2Col, g, n)
	t.x, t.cols = x.Data, cols.Data
	t.run(n, 1)
	return cols
}

// Col2Im scatters columns (as produced by Im2Col) back into an NCHW image
// tensor, accumulating overlapping contributions. It is the adjoint of
// Im2Col.
func Col2Im(cols *Tensor, n int, g ConvGeom) *Tensor {
	return Col2ImInto(NewLike(cols, n, g.InC, g.InH, g.InW), cols, n, g)
}

// Col2ImInto is Col2Im writing into a caller-supplied destination of shape
// [N, InC, InH, InW]. Like Im2ColInto it checks only the volume of cols.
// dst is zeroed before accumulation, so a pooled buffer is fine. Returns
// dst.
func Col2ImInto(out, cols *Tensor, n int, g ConvGeom) *Tensor {
	checkImages("Col2ImInto", out, n, g)
	checkVolume("Col2ImInto", cols, n*g.taps()*g.OutH()*g.OutW())
	t := newConvTask(convCol2Im, g, n)
	t.x, t.cols = out.Data, cols.Data
	t.run(n, 1)
	return out
}

// ConvForwardInto computes out = conv(x, w) + bias for NCHW images x
// [N, InC, InH, InW] and kernels w [OutC, InC·KH·KW] into out
// [N, OutC, OutH, OutW]. bias has length OutC. The backward pass needs
// only x back (ConvParamGradsInto). Returns out.
func ConvForwardInto(out, x, w *Tensor, bias []float64, g ConvGeom) *Tensor {
	n, outC := x.Shape[0], w.Shape[0]
	checkImages("ConvForwardInto", x, n, g)
	checkConvWeight("ConvForwardInto", w, g)
	checkBias("ConvForwardInto", bias, outC)
	checkVolume("ConvForwardInto", out, n*outC*g.OutH()*g.OutW())
	t := newConvTask(convForward, g, n)
	t.x, t.y, t.w, t.bias, t.outC = x.Data, out.Data, w.Data, bias, outC
	t.run(n, 1)
	return out
}

// ConvParamGradsInto adds a convolution's kernel and bias gradients into
// dw [OutC, InC·KH·KW] and db (length OutC), from the forward pass's input
// x [N, InC, InH, InW] and the output gradient grad [N, OutC, OutH, OutW].
//
// Each element of dWᵀ is one multiply-add chain over (image, position) in
// order, kept in a pooled temporary across images and kc blocks, then
// added into dw once; db sums each channel in the same order.
func ConvParamGradsInto(dw *Tensor, db []float64, x, grad *Tensor, g ConvGeom) {
	n, outC, k := grad.Shape[0], dw.Shape[0], g.taps()
	checkConvWeight("ConvParamGradsInto", dw, g)
	checkBias("ConvParamGradsInto", db, outC)
	checkImages("ConvParamGradsInto", x, n, g)
	s := g.OutH() * g.OutW()
	checkVolume("ConvParamGradsInto", grad, n*outC*s)

	dwT := GetTensor(k, outC)
	clear(dwT.Data)
	t := newConvTask(convWeightGrad, g, n)
	t.x, t.y, t.w, t.outC = x.Data, grad.Data, dwT.Data, outC
	t.run(k, mr)
	for oc := 0; oc < outC; oc++ {
		dst := dw.Data[oc*k : (oc+1)*k]
		for kk := range dst {
			dst[kk] += dwT.Data[kk*outC+oc]
		}
	}
	PutTensor(dwT)

	for b := 0; b < n; b++ {
		for oc := range db {
			sum := db[oc]
			for _, v := range grad.Data[(b*outC+oc)*s : (b*outC+oc+1)*s] {
				sum += v
			}
			db[oc] = sum
		}
	}
}

// ConvInputGradInto sets dx [N, InC, InH, InW] to the input gradient of a
// convolution with kernels w, given the output gradient grad
// [N, OutC, OutH, OutW]. It needs nothing from the forward pass. Returns
// dx.
func ConvInputGradInto(dx, grad, w *Tensor, g ConvGeom) *Tensor {
	n, outC := grad.Shape[0], w.Shape[0]
	checkConvWeight("ConvInputGradInto", w, g)
	checkImages("ConvInputGradInto", dx, n, g)
	checkVolume("ConvInputGradInto", grad, n*outC*g.OutH()*g.OutW())
	wT := GetTensor(g.taps(), outC)
	TransposeInto(wT, w)
	t := newConvTask(convInputGrad, g, n)
	t.x, t.y, t.w, t.outC = dx.Data, grad.Data, wT.Data, outC
	t.run(n, 1)
	PutTensor(wT)
	return dx
}

// convOp selects what a convTask does with each unit of its range.
type convOp uint8

const (
	convIm2Col     convOp = iota // image b: cols_b = im2col(x_b)
	convCol2Im                   // image b: x_b = col2im(cols_b)
	convForward                  // image b: scratch = im2col(x_b); y_b = W·scratch + bias
	convInputGrad                // image b: scratch = Wᵀ·y_b; x_b = col2im(scratch)
	convWeightGrad               // rows of dWᵀ (in w): += im2col(x_b)[rows]·y_bᵀ for every b in order
)

// convTask is one conv call's arguments for the helper team. x holds the
// input images (or their gradient), cols a batch's columns (Im2Col and
// Col2Im only), y the output images (or their gradient), w the kernel
// matrix (Wᵀ for convInputGrad, the dWᵀ accumulator for convWeightGrad).
// One task is taken from a pool per call.
type convTask struct {
	fanout
	op         convOp
	g          ConvGeom
	n, outC    int
	x, cols, y []float64
	w, bias    []float64
	gemmNS     atomic.Int64 // time spent in GEMMs, summed over workers
}

var convTasks = sync.Pool{New: func() any { return new(convTask) }}

// newConvTask takes a task from the pool for op over n images; the caller
// sets the operands op reads.
func newConvTask(op convOp, g ConvGeom, n int) *convTask {
	t := convTasks.Get().(*convTask)
	t.op, t.g, t.n, t.outC = op, g, n, 0
	return t
}

// run covers units [0, units) — images, or rows of dWᵀ for the weight
// gradient — in chunks aligned to align, records the GEMM, and returns the
// task to its pool.
func (t *convTask) run(units, align int) {
	// The layer's product, m·n·k over the batch; 0 for im2col and col2im.
	vol := t.n * t.g.OutH() * t.g.OutW() * t.g.taps() * t.outC
	work := max(vol, t.n*t.g.taps()*t.g.OutH()*t.g.OutW())
	workers := rowWorkers(units, work)
	if workers < 2 {
		t.rows(0, units)
	} else {
		fanOutRows(t, units, work, align)
	}
	if vol >= gemmTimedVolume {
		recordGEMM(vol, time.Duration(t.gemmNS.Load()/int64(workers)))
	}
	t.x, t.cols, t.y, t.w, t.bias = nil, nil, nil, nil, nil // pin nothing while pooled
	t.gemmNS.Store(0)
	convTasks.Put(t)
}

func (t *convTask) rows(lo, hi int) {
	g := t.g
	k, s := g.taps(), g.OutH()*g.OutW()
	img, cs, ys := g.InC*g.InH*g.InW, k*s, t.outC*s
	var spent time.Duration // in GEMMs
	switch t.op {
	case convIm2Col:
		for u := lo; u < hi; u++ {
			lowerTaps(t.cols[u*cs:(u+1)*cs], t.x[u*img:(u+1)*img], 0, k, g)
		}
	case convCol2Im:
		for u := lo; u < hi; u++ {
			col2imImage(t.x[u*img:(u+1)*img], t.cols[u*cs:(u+1)*cs], g)
		}
	case convForward:
		cols := GetTensor(k, s)
		for u := lo; u < hi; u++ {
			lowerTaps(cols.Data, t.x[u*img:(u+1)*img], 0, k, g)
			start := time.Now()
			gemm(t.y[u*ys:(u+1)*ys], t.w, cols.Data,
				gemmShape{m: t.outC, k: k, n: s, bias: t.bias, rowBias: true, inner: true})
			spent += time.Since(start)
		}
		PutTensor(cols)
	case convInputGrad:
		cols := GetTensor(k, s)
		for u := lo; u < hi; u++ {
			start := time.Now()
			gemm(cols.Data, t.w, t.y[u*ys:(u+1)*ys], gemmShape{m: k, k: t.outC, n: s, inner: true})
			spent += time.Since(start)
			col2imImage(t.x[u*img:(u+1)*img], cols.Data, g)
		}
		PutTensor(cols)
	case convWeightGrad:
		// Rows [lo, hi) of dWᵀ over every image in order, so each element
		// is one chain over (image, position) at any worker count.
		cols := GetTensor(hi-lo, s)
		for b := 0; b < t.n; b++ {
			lowerTaps(cols.Data, t.x[b*img:(b+1)*img], lo, hi, g)
			start := time.Now()
			gemm(t.w[lo*t.outC:hi*t.outC], cols.Data, t.y[b*ys:(b+1)*ys],
				gemmShape{m: hi - lo, k: s, n: t.outC, transB: true, chain: true, inner: true})
			spent += time.Since(start)
		}
		PutTensor(cols)
	}
	t.gemmNS.Add(int64(spent))
}

// lowerTaps writes rows [lo, hi) of one image's [K, S] columns into dst,
// row lo first. img is the image, [InC, InH, InW].
func lowerTaps(dst, img []float64, lo, hi int, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	s, plane := oh*ow, g.InH*g.InW
	c, ky, kx := lo/(g.KH*g.KW), lo/g.KW%g.KH, lo%g.KW
	for r := lo; r < hi; r++ {
		tapRow(dst[(r-lo)*s:][:s], img[c*plane:(c+1)*plane], ky, kx, oh, ow, g)
		if kx++; kx == g.KW {
			if kx, ky = 0, ky+1; ky == g.KH {
				ky, c = 0, c+1
			}
		}
	}
}

// tapRow writes the column row of tap (ky, kx) over channel plane ch
// [InH, InW] into dst [S]: for every output position in raster order, the
// pixel the tap reads, or zero in the padding. oh and ow are g.OutH() and
// g.OutW().
func tapRow(dst, ch []float64, ky, kx, oh, ow int, g ConvGeom) {
	if g.Stride != 1 || ow != g.InW {
		tapRowRuns(dst, ch, ky, kx, oh, ow, g)
		return
	}
	// Output rows [y0, y1) read input rows inside the image; position p
	// of those reads pixel p + d.
	y0 := min(oh, max(0, g.Pad-ky))
	y1 := max(y0, min(oh, g.InH+g.Pad-ky))
	a, b := y0*ow, y1*ow
	d := (ky-g.Pad)*ow + kx - g.Pad
	// Clamp the copy to the plane; what the clamp drops is a wrapped
	// column, zeroed below like the others.
	ca := min(b, max(a, -d))
	cb := max(ca, min(b, len(ch)-d))
	clear(dst[:a])
	if ca < cb {
		copy(dst[ca:cb], ch[ca+d:cb+d])
	}
	clear(dst[b:])
	lo, hi := g.span(kx, ow)
	for p := a; p < b; p += ow {
		for x := p; x < p+lo; x++ {
			dst[x] = 0
		}
		for x := p + hi; x < p+ow; x++ {
			dst[x] = 0
		}
	}
}

// tapRowRuns is tapRow for any geometry: per output row, a run of one
// input row (strided when Stride > 1) with its ends zero-filled.
func tapRowRuns(dst, ch []float64, ky, kx, oh, ow int, g ConvGeom) {
	lo, hi := g.span(kx, ow)
	ix := lo*g.Stride + kx - g.Pad
	for oy := 0; oy < oh; oy++ {
		row := dst[oy*ow : (oy+1)*ow]
		iy := oy*g.Stride + ky - g.Pad
		if iy < 0 || iy >= g.InH {
			clear(row)
			continue
		}
		clear(row[:lo])
		clear(row[hi:])
		src := ch[iy*g.InW : (iy+1)*g.InW]
		if g.Stride == 1 {
			copy(row[lo:hi], src[ix:])
			continue
		}
		for ox, x := lo, ix; ox < hi; ox, x = ox+1, x+g.Stride {
			row[ox] = src[x]
		}
	}
}

// col2imImage zeroes one image [InC, InH, InW] and adds its [K, S] columns
// into it, the adjoint of the lowering. Taps run in reverse (ky, kx)
// order: a pixel's contributions then arrive in ascending output-position
// order.
func col2imImage(img, cols []float64, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	s := oh * ow
	chLen := g.InH * g.InW
	clear(img)
	for c := 0; c < g.InC; c++ {
		ch := img[c*chLen : (c+1)*chLen]
		for ky := g.KH - 1; ky >= 0; ky-- {
			for kx := g.KW - 1; kx >= 0; kx-- {
				row := cols[((c*g.KH+ky)*g.KW+kx)*s:][:s]
				lo, hi := g.span(kx, ow)
				if lo == hi {
					continue
				}
				ix := lo*g.Stride + kx - g.Pad
				if g.Stride == 1 {
					// Output rows [y0, y1) read input rows inside the
					// image, each a run of hi − lo, added in one call.
					y0 := min(oh, max(0, g.Pad-ky))
					y1 := max(y0, min(oh, g.InH+g.Pad-ky))
					if y0 < y1 {
						addRows(ch[(y0+ky-g.Pad)*g.InW+ix:], row[y0*ow+lo:], g.InW, ow, hi-lo, y1-y0)
					}
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					src := row[oy*ow+lo : oy*ow+hi]
					dst := ch[iy*g.InW : (iy+1)*g.InW]
					for x, v := range src {
						dst[ix+x*g.Stride] += v
					}
				}
			}
		}
	}
}

// addRowsGo adds rows runs of run values, lds apart in src, into dst, ldd
// apart, one axpyRow(·, ·, 1) per run: the portable loop behind addRows.
// 1·v is exact, so each fused add rounds as += v.
func addRowsGo(dst, src []float64, ldd, lds, run, rows int) {
	for r := 0; r < rows; r++ {
		axpyRow(dst[r*ldd:r*ldd+run], src[r*lds:r*lds+run], 1)
	}
}

// checkVolume panics unless t holds exactly n elements.
func checkVolume(op string, t *Tensor, n int) {
	if t.Size() != n {
		panic(fmt.Sprintf("tensor: %s operand shape %v holds %d elements, want %d", op, t.Shape, t.Size(), n))
	}
}

// checkImages panics unless t is [n, InC, InH, InW].
func checkImages(op string, t *Tensor, n int, g ConvGeom) {
	if t.Dims() != 4 || t.Shape[0] != n || t.Shape[1] != g.InC || t.Shape[2] != g.InH || t.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: %s image shape %v, want [%d %d %d %d]",
			op, t.Shape, n, g.InC, g.InH, g.InW))
	}
}

// checkConvWeight panics unless w is a [OutC, InC·KH·KW] kernel matrix.
func checkConvWeight(op string, w *Tensor, g ConvGeom) {
	if w.Dims() != 2 || w.Shape[1] != g.taps() {
		panic(fmt.Sprintf("tensor: %s kernel shape %v, want [outC %d]", op, w.Shape, g.taps()))
	}
}
