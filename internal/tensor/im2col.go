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
// padding). A batch's columns are N such blocks back to back, [N, K, S].
//
//   - im2col is row copies: within one output row, a tap row reads a
//     contiguous run of one input row, shifted by kx − Pad (strided when
//     Stride > 1), and zero-fills the ends.
//   - col2im is the same runs added back. Taps are walked in reverse
//     (ky, kx) order, so every pixel sums its contributions in ascending
//     output-position order, which the nn package's row-major reference
//     (TestConv2DMatchesRowMajorOracle) pins bit for bit.
//   - The forward product out_b = W·cols_b + bias is [OutC, S]: image b's
//     NCHW output, written in place. The backward reads the output
//     gradient g_b [OutC, S] in place the same way: dcols_b = Wᵀ·g_b
//     feeds col2im, and dWᵀ accumulates cols_b·g_bᵀ.
//
// Every per-image step fans out over images, and the weight gradient over
// rows of dWᵀ, through one pooled convTask per call; nothing is allocated
// per image. Each per-image product is an inner GEMM (gemmShape.inner):
// serial, untimed, and with its row remainder on the tile kernel, so every
// element of a product is one multiply-add chain in k order, rounded the
// same in every row. The layer's product is recorded as one GEMM of the
// whole batch's volume, so the GEMM counters see one product per layer
// pass, as for a dense layer.

// taps is K, the row count of one image's column block.
func (g ConvGeom) taps() int { return g.InC * g.KH * g.KW }

// span returns the output columns [lo, hi) at which tap column kx lands
// inside an input row: 0 ≤ ox·Stride + kx − Pad < InW.
func (g ConvGeom) span(kx int) (lo, hi int) {
	ow := g.OutW()
	off := kx - g.Pad
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
// Im2Col and is used in the convolution backward pass.
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
// [N, OutC, OutH, OutW], keeping the batch's columns in cols (volume as
// Im2ColInto's) for the backward pass. bias has length OutC. Returns out.
func ConvForwardInto(out, cols, x, w *Tensor, bias []float64, g ConvGeom) *Tensor {
	n, outC := x.Shape[0], w.Shape[0]
	checkImages("ConvForwardInto", x, n, g)
	checkConvWeight("ConvForwardInto", w, g)
	checkBias("ConvForwardInto", bias, outC)
	checkVolume("ConvForwardInto", cols, n*g.taps()*g.OutH()*g.OutW())
	checkVolume("ConvForwardInto", out, n*outC*g.OutH()*g.OutW())
	t := newConvTask(convForward, g, n)
	t.x, t.cols, t.y, t.w, t.bias, t.outC = x.Data, cols.Data, out.Data, w.Data, bias, outC
	t.run(n, 1)
	return out
}

// ConvParamGradsInto adds a convolution's kernel and bias gradients into
// dw [OutC, InC·KH·KW] and db (length OutC), from the columns its forward
// pass kept and the output gradient grad [N, OutC, OutH, OutW].
//
// Each element of dWᵀ is one multiply-add chain over (image, position) in
// order, kept in a pooled temporary across images and kc blocks, then
// added into dw once; db sums each channel in the same order.
func ConvParamGradsInto(dw *Tensor, db []float64, cols, grad *Tensor, g ConvGeom) {
	n, outC, k := grad.Shape[0], dw.Shape[0], g.taps()
	checkConvWeight("ConvParamGradsInto", dw, g)
	checkBias("ConvParamGradsInto", db, outC)
	s := g.OutH() * g.OutW()
	checkVolume("ConvParamGradsInto", cols, n*k*s)
	checkVolume("ConvParamGradsInto", grad, n*outC*s)

	dwT := GetTensor(k, outC)
	clear(dwT.Data)
	t := newConvTask(convWeightGrad, g, n)
	t.cols, t.y, t.w, t.outC = cols.Data, grad.Data, dwT.Data, outC
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
// convolution with kernels w, given its forward columns and the output
// gradient grad. The columns are dead once the parameter gradients are
// taken, so each image's grad columns Wᵀ·g_b overwrite its columns in
// cols before col2im scatters them. Returns dx.
func ConvInputGradInto(dx, cols, grad, w *Tensor, g ConvGeom) *Tensor {
	n, outC := grad.Shape[0], w.Shape[0]
	checkConvWeight("ConvInputGradInto", w, g)
	checkImages("ConvInputGradInto", dx, n, g)
	checkVolume("ConvInputGradInto", cols, n*g.taps()*g.OutH()*g.OutW())
	checkVolume("ConvInputGradInto", grad, n*outC*g.OutH()*g.OutW())
	wT := GetTensor(g.taps(), outC)
	TransposeInto(wT, w)
	t := newConvTask(convInputGrad, g, n)
	t.x, t.cols, t.y, t.w, t.outC = dx.Data, cols.Data, grad.Data, wT.Data, outC
	t.run(n, 1)
	PutTensor(wT)
	return dx
}

// convOp selects what a convTask does with each unit of its range.
type convOp uint8

const (
	convIm2Col     convOp = iota // image b: cols_b = im2col(x_b)
	convCol2Im                   // image b: x_b = col2im(cols_b)
	convForward                  // image b: cols_b = im2col(x_b); y_b = W·cols_b + bias
	convInputGrad                // image b: cols_b = Wᵀ·y_b; x_b = col2im(cols_b)
	convWeightGrad               // rows of dWᵀ (in w): += cols_b·y_bᵀ for every b in order
)

// convTask is one conv call's arguments for the helper team. x holds the
// input images (or their gradient), cols the columns, y the output images
// (or their gradient), w the kernel matrix (Wᵀ for convInputGrad, the dWᵀ
// accumulator for convWeightGrad). One task is taken from a pool per call.
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
			im2colImage(t.cols[u*cs:(u+1)*cs], t.x[u*img:(u+1)*img], g)
		}
	case convCol2Im:
		for u := lo; u < hi; u++ {
			col2imImage(t.x[u*img:(u+1)*img], t.cols[u*cs:(u+1)*cs], g)
		}
	case convForward:
		for u := lo; u < hi; u++ {
			cols := t.cols[u*cs : (u+1)*cs]
			im2colImage(cols, t.x[u*img:(u+1)*img], g)
			start := time.Now()
			gemm(t.y[u*ys:(u+1)*ys], t.w, cols,
				gemmShape{m: t.outC, k: k, n: s, bias: t.bias, rowBias: true, inner: true})
			spent += time.Since(start)
		}
	case convInputGrad:
		for u := lo; u < hi; u++ {
			cols := t.cols[u*cs : (u+1)*cs]
			start := time.Now()
			gemm(cols, t.w, t.y[u*ys:(u+1)*ys], gemmShape{m: k, k: t.outC, n: s, inner: true})
			spent += time.Since(start)
			col2imImage(t.x[u*img:(u+1)*img], cols, g)
		}
	case convWeightGrad:
		// Rows [lo, hi) of dWᵀ over every image in order, so each element
		// is one chain over (image, position) at any worker count.
		start := time.Now()
		for b := 0; b < t.n; b++ {
			gemm(t.w[lo*t.outC:hi*t.outC], t.cols[b*cs+lo*s:b*cs+hi*s], t.y[b*ys:(b+1)*ys],
				gemmShape{m: hi - lo, k: s, n: t.outC, transB: true, chain: true, inner: true})
		}
		spent = time.Since(start)
	}
	t.gemmNS.Add(int64(spent))
}

// im2colImage lowers one image [InC, InH, InW] into its [K, S] columns.
func im2colImage(cols, img []float64, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	s := oh * ow
	chLen := g.InH * g.InW
	for c := 0; c < g.InC; c++ {
		ch := img[c*chLen : (c+1)*chLen]
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				row := cols[((c*g.KH+ky)*g.KW+kx)*s:][:s]
				lo, hi := g.span(kx)
				ix := lo*g.Stride + kx - g.Pad
				for oy := 0; oy < oh; oy++ {
					dst := row[oy*ow : (oy+1)*ow]
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						clear(dst)
						continue
					}
					clear(dst[:lo])
					clear(dst[hi:])
					src := ch[iy*g.InW : (iy+1)*g.InW]
					if g.Stride == 1 {
						copy(dst[lo:hi], src[ix:])
						continue
					}
					for ox, x := lo, ix; ox < hi; ox, x = ox+1, x+g.Stride {
						dst[ox] = src[x]
					}
				}
			}
		}
	}
}

// col2imImage zeroes one image [InC, InH, InW] and adds its [K, S] columns
// into it, the adjoint of im2colImage. Taps run in reverse (ky, kx) order:
// a pixel's contributions then arrive in ascending output-position order.
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
				lo, hi := g.span(kx)
				if lo == hi {
					continue
				}
				ix := lo*g.Stride + kx - g.Pad
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					src := row[oy*ow+lo : oy*ow+hi]
					dst := ch[iy*g.InW : (iy+1)*g.InW]
					if g.Stride == 1 {
						// 1·v is exact, so the fused add rounds as += v.
						axpyRow(dst[ix:ix+len(src)], src, 1)
						continue
					}
					for x, v := range src {
						dst[ix+x*g.Stride] += v
					}
				}
			}
		}
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
