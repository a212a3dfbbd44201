package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The GEMM in this file follows the classic Goto/BLIS decomposition at a
// scale tuned for this repo's model sizes (k of tens to hundreds, n from a
// handful of conv channels up to a few thousand dense units), in one
// blocked driver for both precision tiers (gemmBlocked; the f32 tier's
// facts are in matmul32.go):
//
//   - B is packed one (kcBlock × ncBlock) block at a time into column
//     panels, nr wide (nr32 in the f32 tier), so the micro-kernel streams
//     it contiguously. The final panel is zero-padded, which keeps the
//     kernel free of column edge cases; padded lanes are masked at store
//     time. A B reused across many products (a layer's weights) can be
//     packed once for all of its blocks instead (PackedB, packed.go).
//   - Each tile row of a block is one sweep across the block's panels:
//     per panel (or pair of panels), a tile of C with all accumulators in
//     registers across the k-block, stored straight into dst in the
//     block's mode (set, add, row or column bias, or chain) before the
//     next panel starts. On amd64 the whole sweep is one call to an
//     assembly body in kernel_amd64.s, chosen once at init by one rule for
//     both tiers (decodeCPU): in f64, 8×16 tiles over two panels at a
//     time with AVX-512, 4×8 tiles with AVX2+FMA. So a product with a
//     short k (a conv input gradient's k is OutC, 10 or 14) pays one call
//     per tile row instead of a call, a tile buffer and a store per tile.
//     Everywhere else the portable sweepGo runs (a micro-kernel then
//     storeTile per panel), as does the scalar 1×nr tile of a dense f64
//     product's row remainder.
//   - Rows are split across the helper team per (kc, nc) block. Every
//     output element is computed by exactly one worker with a fixed
//     k-accumulation order, so results are bit-identical for any worker
//     count — the property the federation determinism tests rely on.
//
// Transposed operands never materialize a transposed copy on the heap:
// MatMulTransA packs Aᵀ into a pooled scratch buffer and MatMulTransB packs
// B's rows directly into column panels.
//
// nr is the f64 packed panel's width: one AVX2 register pair or one
// AVX-512 register of float64. mr is the f64 tile height of the portable
// and AVX2 bodies, mrA that of the AVX-512 body and the A rows one sweep
// call takes in either tier; tileRows is the running body's. The parallel
// fan-outs align their chunks to the running tile height.
const (
	mr  = 4
	mrA = 8
	nr  = 8

	// kcBlock × nr panel ≈ 16 KiB: two panels plus the A rows stay L1/L2
	// resident. ncBlock bounds the packed block to kcBlock×ncBlock ≈ 1 MiB.
	kcBlock = 256
	ncBlock = 512
)

// parallelThreshold is the matrix volume (rows*cols*inner) above which
// GEMM and the im2col kernels fan out across goroutines. Below it the
// goroutine overhead outweighs the parallel speedup.
const parallelThreshold = 64 * 64 * 64

// MatMul returns a·b for 2-D tensors a (m×k) and b (k×n).
// Large products are computed in parallel across row blocks.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMul", a, b, false, false)
	out := NewLike(a, m, n)
	gemm(out.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n})
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage (shape must be m×n).
// dst must not alias a or b. Returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMulInto", a, b, false, false)
	checkDst("MatMulInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n})
	return dst
}

// MatMulBiasInto computes dst = a·b + bias (bias broadcast across rows,
// length n), fused into the GEMM epilogue. dst must not alias a or b.
func MatMulBiasInto(dst, a, b *Tensor, bias []float64) *Tensor {
	m, _, n := gemmDims("MatMulBiasInto", a, b, false, false)
	checkDst("MatMulBiasInto", dst, m, n)
	checkBias("MatMulBiasInto", bias, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n, bias: bias})
	return dst
}

// MatMulTransA returns aᵀ·b where a is k×m and b is k×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMulTransA", a, b, true, false)
	out := NewLike(a, m, n)
	MatMulTransAInto(out, a, b)
	return out
}

// transADirectMaxM is the output-height ceiling for the direct aᵀ·b path.
// A dense layer's weight gradient (dW = gradᵀ·x) has m = output units, a
// handful of classes at the head, so the blocked kernel spends more time
// packing B (k·n panel writes) than on the m·n·k arithmetic; below this m
// the whole dst stays cache-resident and rank-1 accumulation wins.
const transADirectMaxM = 32

// MatMulTransAInto computes dst = aᵀ·b where a is k×m and b is k×n, without
// allocating. Small m takes the direct rank-1 path; otherwise Aᵀ is staged
// through a pooled scratch buffer into the blocked kernel. dst must not
// alias a or b. Returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	m, k, n := gemmDims("MatMulTransAInto", a, b, true, false)
	checkDst("MatMulTransAInto", dst, m, n)
	if m <= transADirectMaxM {
		transADirect(dst.Data, a.Data, b.Data, m, k, n)
		return dst
	}
	gemmTransA(dst, a, b, gemmShape{m: m, k: k, n: n})
	return dst
}

// gemmTransA runs the blocked kernel on aᵀ (a is k×m). The row-major
// kernel wants A's rows contiguous, so Aᵀ is staged in a pooled buffer
// rather than strided through column-wise: transposed as float64, or under
// F32 transposed and narrowed in one pass into the f32 operand the mixed
// driver reads (gemm's narrowing of an already transposed copy, done without
// the copy).
func gemmTransA(dst, a, b *Tensor, s gemmShape) {
	if useF32() {
		a32 := getF32(s.m * s.k)
		transposeNarrow(a32, a.Data, s.k, s.m)
		gemmBlocked(dst.Data, a32, b.Data, s.mixed())
		putF32(a32)
		return
	}
	at := GetTensor(s.m, s.k)
	TransposeInto(at, a)
	gemm(dst.Data, at.Data, b.Data, s)
	PutTensor(at)
}

// MatMulTransAAddInto adds aᵀ·b into dst, where a is k×m and b is k×n:
// a layer's weight gradient accumulating into its Param.Grad. The result
// is bit-identical to AddInPlace(dst, MatMulTransA(a, b)). When the
// blocked kernel covers k in one block, its partial sums are the finished
// product, so it adds them into dst as it stores them and neither a
// temporary nor a second pass over dst is needed; other shapes go through
// a pooled temporary. dst must not alias a or b. Returns dst.
func MatMulTransAAddInto(dst, a, b *Tensor) *Tensor {
	m, k, n := gemmDims("MatMulTransAAddInto", a, b, true, false)
	checkDst("MatMulTransAAddInto", dst, m, n)
	if k == 0 {
		return dst
	}
	if m > transADirectMaxM && k <= kcBlock {
		gemmTransA(dst, a, b, gemmShape{m: m, k: k, n: n, acc: true})
		return dst
	}
	tmp := GetTensor(m, n)
	AddInPlace(dst, MatMulTransAInto(tmp, a, b))
	PutTensor(tmp)
	return dst
}

// transADirect accumulates dst = aᵀ·b (a k×m, b k×n) one rank-1 update per
// row of a, reading both operands in storage order with no transpose or
// packing. Rows of a that came through a ReLU backward are frequently zero,
// so zero lanes skip their n-wide update entirely. Serial by construction,
// hence trivially bit-identical across worker counts.
func transADirect(dst, a, b []float64, m, k, n int) {
	if useF32() {
		transADirect32(dst, a, b, m, k, n)
		return
	}
	vol := m * k * n
	timed := vol >= gemmTimedVolume
	var start time.Time
	if timed {
		start = time.Now()
	}
	for i := range dst[:m*n] {
		dst[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow(dst[i*n:(i+1)*n], brow, av)
		}
	}
	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// transposeNarrowGo writes dst[i*k+p] = float32(a[p*m+i]) (dst m×k the
// narrowed transpose of a k×m) for every i ≥ i0 and, in rows i < i0, for
// every p ≥ p0: the whole product at (0, 0), the edges around a 4-aligned
// block the vector routine covered otherwise. The portable loop behind
// transposeNarrow.
func transposeNarrowGo(dst []float32, a []float64, k, m, i0, p0 int) {
	for i := 0; i < m; i++ {
		p := 0
		if i < i0 {
			p = p0
		}
		row := dst[i*k : (i+1)*k]
		for ; p < k; p++ {
			row[p] = float32(a[p*m+i])
		}
	}
}

// axpyRowGo is the portable dst += alpha·src loop behind axpyRow.
func axpyRowGo(dst, src []float64, alpha float64) {
	for j, v := range src[:len(dst)] {
		dst[j] += alpha * v
	}
}

// MatMulTransB returns a·bᵀ where a is m×k and b is n×k.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMulTransB", a, b, false, true)
	out := NewLike(a, m, n)
	gemm(out.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n, transB: true})
	return out
}

// MatMulTransBInto computes dst = a·bᵀ where a is m×k and b is n×k. dst
// must not alias a or b. Returns dst.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	m, k, n := gemmDims("MatMulTransBInto", a, b, false, true)
	checkDst("MatMulTransBInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: k, n: n, transB: true})
	return dst
}

// MatMulTransBBiasInto computes dst = a·bᵀ + bias (bias broadcast across
// rows, length n), fused into the GEMM epilogue — the convolution forward
// pass in one call. dst must not alias a or b.
func MatMulTransBBiasInto(dst, a, b *Tensor, bias []float64) *Tensor {
	m, k, n := gemmDims("MatMulTransBBiasInto", a, b, false, true)
	checkDst("MatMulTransBBiasInto", dst, m, n)
	checkBias("MatMulTransBBiasInto", bias, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: k, n: n, transB: true, bias: bias})
	return dst
}

// gemmDims validates operand ranks/shapes and returns (m, k, n) for the
// requested transposition.
func gemmDims(op string, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.Shape, b.Shape))
	}
	if transA {
		k, m = a.Shape[0], a.Shape[1]
	} else {
		m, k = a.Shape[0], a.Shape[1]
	}
	var kb int
	if transB {
		n, kb = b.Shape[0], b.Shape[1]
	} else {
		kb, n = b.Shape[0], b.Shape[1]
	}
	if kb != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v·%v", op, a.Shape, b.Shape))
	}
	return m, k, n
}

func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

func checkBias(op string, bias []float64, n int) {
	if len(bias) != n {
		panic(fmt.Sprintf("tensor: %s bias length %d, want %d", op, len(bias), n))
	}
}

// gemmShape carries one product's geometry through the blocked driver.
type gemmShape struct {
	m, k, n int
	transB  bool      // b is n×k instead of k×n
	bias    []float64 // optional epilogue bias, length n (m under rowBias)
	rowBias bool      // bias is per row of dst instead of per column
	pre     *PackedB  // B already packed (b is then unused), or nil
	acc     bool      // add into dst instead of overwriting it; no bias
	// chain continues every element's multiply-add chain from dst's value
	// across k-blocks (and calls) instead of adding block sums; no bias,
	// inner products only. The f32 tier sums its k-blocks in float64 and
	// folds it into acc.
	chain bool
	// inner marks one image's product inside a convolution's own fan-out
	// (im2col.go): it runs serially, is not timed on its own, and runs its
	// row remainder through the tile kernel like every other row.
	inner bool
}

// f32 reports whether the product runs in the f32 tier: a packed B fixes
// the tier it was packed for, otherwise the precision policy decides.
func (s gemmShape) f32() bool {
	if s.pre != nil {
		return s.pre.f32
	}
	return useF32()
}

// mixed is s as the mixed path's driver shape: chained products sum their
// k-blocks in float64 like accumulating ones.
func (s gemmShape) mixed() gemmShape {
	s.acc, s.chain = s.acc || s.chain, false
	return s
}

// gemm is the f64-facing entry point: dst (m×n, fully overwritten) =
// a·op(b) + bias, or dst += a·op(b) under s.acc.
// Under the F32 precision policy the product routes through the f32 tier
// (matmul32.go): A narrows once here into a pooled f32 buffer, B narrows
// at pack time, the widened f32 sweep computes each k-block, and partial
// sums accumulate in float64 — same blocked driver, so worker-count
// determinism holds.
func gemm(dst, a, b []float64, s gemmShape) {
	if s.m == 0 || s.n == 0 || s.k == 0 || !s.f32() {
		gemmBlocked(dst, a, b, s) // a degenerate product has nothing to narrow
		return
	}
	a32 := getF32(s.m * s.k)
	NarrowSlice(a32, a[:s.m*s.k])
	gemmBlocked(dst, a32, b, s.mixed())
	putF32(a32)
}

// elem constrains the driver's element types to the two storage widths.
type elem interface{ float32 | float64 }

// is32 reports whether E is the f32 tier's element.
func is32[E elem]() bool {
	var z E
	_, ok := any(z).(float32)
	return ok
}

// tier returns the facts of packed element P's tier: the panel width (nr
// or nr32) and the running sweep body's tile height (tileRows or
// tileRows32).
func tier[P elem]() (width, height int) {
	if is32[P]() {
		return nr32, tileRows32
	}
	return nr, tileRows
}

// pick returns whichever of v64 and v32 holds P's elements.
func pick[P elem](v64 []float64, v32 []float32) []P {
	if is32[P]() {
		return any(v32).([]P)
	}
	return any(v64).([]P)
}

// gemmBlocked is the blocked driver of both tiers, generic over the packed
// element P and the destination element T: dst (m×n, fully overwritten) =
// a·op(b) + bias, or dst += a·op(b) under s.acc. Production runs two
// instantiations: P = T = float64, the f64 tier, and P = float32 with T =
// float64, the mixed path (a already narrowed, b narrowed as it packs, the
// sweep's store widening). P = T = float32, f32 in and out with a narrowed
// bias, is the tests' pure-f32 reference the mixed path is held to.
// Panels come from P's scratch arena, and each instantiation has its own
// task pool.
func gemmBlocked[P, T elem](dst []T, a []P, b []T, s gemmShape) {
	if s.m == 0 || s.n == 0 {
		return
	}
	if s.k == 0 {
		fillBias(dst, s)
		return
	}
	vol := s.m * s.n * s.k
	timed := vol >= gemmTimedVolume && !s.inner
	var start time.Time
	if timed {
		start = time.Now()
	}

	width, height := tier[P]()
	var bpack []P
	var bt *Tensor
	if s.pre == nil {
		bpack, bt = getPanels[P](packLen(s.k, s.n, width))
	}
	var task *gemmTask[P, T]
	if !s.inner && rowWorkers(s.m, vol) >= 2 {
		task = taskPool[P, T]().Get().(*gemmTask[P, T])
		task.dst, task.a, task.s = dst, a, s
	}
	for jc := 0; jc < s.n; jc += ncBlock {
		ncb := min(ncBlock, s.n-jc)
		for pc := 0; pc < s.k; pc += kcBlock {
			kcb := min(kcBlock, s.k-pc)
			bp := bpack
			if s.pre != nil {
				bp = pick[P](s.pre.d64, s.pre.d32)[blockOffset(s.k, pc, jc, ncb, width):]
			} else {
				packB(bp, b, pc, jc, kcb, ncb, s)
			}
			first := pc == 0 && !s.acc // a chained tile's mode is storeChain whatever first is (gemmRows)
			if task == nil {
				gemmRows(dst, a, bp, 0, s.m, pc, jc, kcb, ncb, s, first)
			} else {
				task.bpack, task.pc, task.jc, task.kcb, task.ncb, task.first = bp, pc, jc, kcb, ncb, first
				fanOutRows(task, s.m, vol, height)
			}
		}
	}
	if s.pre == nil {
		putPanels(bpack, bt)
	}
	if task != nil {
		task.dst, task.a, task.bpack, task.s = nil, nil, nil, gemmShape{} // pin nothing while pooled
		taskPool[P, T]().Put(task)
	}

	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// fillBias handles the degenerate k == 0 product: dst = bias (or zero).
func fillBias[T elem](dst []T, s gemmShape) {
	for i := 0; i < s.m; i++ {
		row := dst[i*s.n : (i+1)*s.n]
		for j := range row {
			switch {
			case s.bias == nil:
				row[j] = 0
			case s.rowBias:
				row[j] = T(s.bias[i])
			default:
				row[j] = T(s.bias[j])
			}
		}
	}
}

// packB packs the (kcb × ncb) block of op(b) at (pc, jc) into column panels
// of P's width w laid out panel-major: panel jp holds columns
// [jc+jp*w, jc+jp*w+w) as kcb rows of w contiguous values, narrowed to
// float32 in the f32 tier. Columns past ncb are zero-padded so the
// micro-kernel never sees a ragged panel.
func packB[P, T elem](dst []P, b []T, pc, jc, kcb, ncb int, s gemmShape) {
	w, _ := tier[P]()
	for jp := 0; jp*w < ncb; jp++ {
		d, col := dst[jp*kcb*w:(jp+1)*kcb*w], jc+jp*w
		lanes := min(w, ncb-jp*w)
		if s.transB {
			// op(b) = bᵀ with b n×k: column col+j of op(b) is row col+j of b.
			packPanelT(d, b[col*s.k+pc:], s.k, kcb, lanes)
		} else {
			packPanel(d, b[pc*s.n+col:], s.n, kcb, lanes)
		}
	}
}

// packGo packs one panel of P's width with its tier's portable loop, of
// packPanel's layout or, under trans, of packPanelT's: the loops behind
// both, which the f32 ones narrow through.
func packGo[P, T elem](d []P, src []T, ld, kcb, w int, trans bool) {
	switch d := any(d).(type) {
	case []float64:
		s := any(src).([]float64)
		if trans {
			packPanelTGo(d, s, ld, kcb, w)
		} else {
			packPanelGo(d, s, ld, kcb, w)
		}
	case []float32:
		if trans {
			packPanelT32Go(d, src, ld, kcb, w)
		} else {
			packPanel32Go(d, src, ld, kcb, w)
		}
	}
}

// packPanelGo packs kcb rows of w ≤ nr values, ld apart in src, into the
// nr-wide panel d, zero-padding lanes w..nr: the portable loop behind
// packPanel.
func packPanelGo(d, src []float64, ld, kcb, w int) {
	for p := 0; p < kcb; p++ {
		dp := d[p*nr : p*nr+nr : p*nr+nr]
		if w == nr { // a whole panel row at a time, bounds checked once
			sp := src[p*ld : p*ld+nr : p*ld+nr]
			dp[0], dp[1], dp[2], dp[3], dp[4], dp[5], dp[6], dp[7] = sp[0], sp[1], sp[2], sp[3], sp[4], sp[5], sp[6], sp[7]
			continue
		}
		copy(dp[:w], src[p*ld:p*ld+w])
		clear(dp[w:])
	}
}

// packPanelTGo packs w ≤ nr columns of kcb values — column j is the run
// src[j*ld : j*ld+kcb] — into the nr-wide panel d, zero-padding lanes
// w..nr: the portable loop behind packPanelT.
func packPanelTGo(d, src []float64, ld, kcb, w int) {
	for j := 0; j < w; j++ {
		for p, v := range src[j*ld : j*ld+kcb] {
			d[p*nr+j] = v
		}
	}
	if w < nr {
		for p := 0; p < kcb; p++ {
			clear(d[p*nr+w : p*nr+nr])
		}
	}
}

// gemmTask is one parallel product's row kernel: the arguments gemmRows
// needs beyond the row range. gemmBlocked takes one per product from its
// instantiation's pool and rewrites the block fields between fan-outs, so
// the parallel path allocates nothing in the steady state (it used to cost
// a closure and a goroutine per chunk per cache block); the serial path
// calls gemmRows directly.
type gemmTask[P, T elem] struct {
	fanout
	dst              []T
	a, bpack         []P
	pc, jc, kcb, ncb int
	s                gemmShape
	first            bool
}

func (t *gemmTask[P, T]) rows(lo, hi int) {
	gemmRows(t.dst, t.a, t.bpack, lo, hi, t.pc, t.jc, t.kcb, t.ncb, t.s, t.first)
}

// gemmTaskPools hold the idle tasks of the driver's three instantiations:
// f64, mixed and pure f32. A task holds its instantiation's operands, so
// no two share a pool.
var gemmTaskPools = [...]sync.Pool{
	{New: func() any { return new(gemmTask[float64, float64]) }},
	{New: func() any { return new(gemmTask[float32, float64]) }},
	{New: func() any { return new(gemmTask[float32, float32]) }},
}

// taskPool is the (P, T) instantiation's pool.
func taskPool[P, T elem]() *sync.Pool {
	switch {
	case !is32[P]():
		return &gemmTaskPools[0]
	case !is32[T]():
		return &gemmTaskPools[1]
	}
	return &gemmTaskPools[2]
}

// gemmRows computes rows [i0, i1) of dst against the packed B block. first
// marks the k-block that overwrites dst (folding in the bias); later
// k-blocks accumulate, in dst's precision, so the mixed path sums its f32
// k-block partials in float64. Under s.chain each tile starts from dst's
// values. Each tile row of up to the tier's tile height is one sweep over
// the block's panels.
//
// Every row of an f32 product, and of an inner f64 product, stays on the
// sweep: a row remainder runs it with its missing rows aliased to the last
// valid one, and only the valid rows are stored. The kernel keeps one
// independent chain per element, so those rows round exactly as they would
// inside a full tile (with the assembly bodies, fused); a conv product's
// rows are channels or kernel taps, whose counts are rarely multiples of
// the tile height. A dense f64 product sweeps whole groups of mr rows and
// runs the last rows (fewer than mr) through the unfused scalar 1×nr tile
// (rowTail), so every f64 body fuses the same rows.
func gemmRows[P, T elem](dst []T, a, bpack []P, i0, i1, pc, jc, kcb, ncb int, s gemmShape, first bool) {
	_, height := tier[P]()
	whole := !is32[P]() && !s.inner // sweep whole groups of mr rows only
	var ar [mrA][]P
	i := i0
	for i < i1 {
		rows := min(height, i1-i)
		if whole {
			if rows &^= mr - 1; rows == 0 {
				break
			}
		}
		for r := range ar {
			ri := i + min(r, rows-1)
			ar[r] = a[ri*s.k+pc : ri*s.k+pc+kcb]
		}
		mode, bias := storeMode(s.bias, s.rowBias, i, jc, first)
		if s.chain {
			mode = storeChain
		}
		sweep(dst[i*s.n+jc:], &ar, bpack, s.n, kcb, ncb, rows, mode, bias)
		i += rows
	}
	if i < i1 { // only a dense f64 product leaves rows to the scalar tile
		rowTail(any(dst).([]float64), any(a).([]float64), any(bpack).([]float64), i, i1, pc, jc, kcb, ncb, s, first)
	}
}

// rowTail computes rows [i, i1) of a dense f64 product against the packed
// B block with the scalar 1×nr tile, panel by panel.
func rowTail(dst, a, bpack []float64, i, i1, pc, jc, kcb, ncb int, s gemmShape, first bool) {
	var c [mr * nr]float64
	for ; i < i1; i++ {
		ar := a[i*s.k+pc : i*s.k+pc+kcb]
		for j := 0; j < ncb; j += nr {
			microKernel1(&c, ar, bpack[j*kcb:(j+nr)*kcb], kcb)
			mode, bias := storeMode(s.bias, s.rowBias, i, jc+j, first)
			storeTile(dst[i*s.n+jc+j:], c[:], s.n, 1, min(nr, ncb-j), mode, bias)
		}
	}
}

// sweepGo is the portable loop behind sweep: rows rows of d (row stride
// ld; the block's first column) from the A rows a — a remainder tile's
// missing rows aliased to its last valid one — against every panel of the
// packed (kcb, ncb) block, one tile and one storeTile per panel. The f64
// tile is microKernel's mr rows, which under storeChain start from d's
// values and overwrite them; the f32 tile is microKernel32's mr32 rows,
// or with fused the build's fused multiply-add tile of tileRows32 rows
// (fusedTile32). Under storeColBias, bias starts at the block's first
// column.
func sweepGo[P, T elem](d []T, a *[mrA][]P, bpack []P, ld, kcb, ncb, rows, mode int, bias []float64, fused bool) {
	var c [mrA * nr32]P
	w, _ := tier[P]()
	chain := mode == storeChain
	for j := 0; j < ncb; j += w {
		lanes := min(w, ncb-j)
		if chain {
			for r := 0; r < rows; r++ {
				for x, v := range d[r*ld+j:][:lanes] {
					c[r*w+x] = P(v)
				}
			}
		}
		bp := bpack[j*kcb : (j+w)*kcb]
		switch c := any(&c).(type) {
		case *[mrA * nr32]float64:
			a := any(a).(*[mrA][]float64)
			microKernel((*[mr * nr]float64)(c[:]), a[0], a[1], a[2], a[3], any(bp).([]float64), kcb, chain)
		case *[mrA * nr32]float32:
			a, bp := any(a).(*[mrA][]float32), any(bp).([]float32)
			if fused {
				fusedTile32(c, a, bp, kcb)
			} else {
				microKernel32(c, a, bp, kcb)
			}
		}
		m, b := mode, bias
		switch mode {
		case storeChain:
			m = storeSet
		case storeColBias:
			b = bias[j:]
		}
		storeTile(d[j:], c[:], ld, rows, lanes, m, b)
	}
}

// How a tile lands in the destination. The first k-block of a product
// overwrites dst, folding in the bias of each row or of each column; later
// k-blocks (and accumulating products) add to it.
const (
	storeSet     = iota // d = c
	storeAdd            // d += c
	storeRowBias        // d = c + bias[r]
	storeColBias        // d = c + bias[x]
	storeChain          // c starts from d, then d = c (sweep only)
)

// storeMode picks the tile store for a tile at row i, column j: the mode
// and, for the bias modes, the bias slice starting at the tile's first row
// or column.
func storeMode(bias []float64, rowBias bool, i, j int, first bool) (int, []float64) {
	switch {
	case !first:
		return storeAdd, nil
	case bias == nil:
		return storeSet, nil
	case rowBias:
		return storeRowBias, bias[i:]
	default:
		return storeColBias, bias[j:]
	}
}

// storeTile lands the first rows × w lanes of tile c, whose rows are P's
// panel width apart, in d (row stride ld) by mode, widening each value and
// narrowing each bias to T.
func storeTile[P, T elem](d []T, c []P, ld, rows, w, mode int, bias []float64) {
	cw, _ := tier[P]()
	for r := 0; r < rows; r++ {
		dr, cr := d[r*ld:][:w], c[r*cw:][:w]
		switch mode {
		case storeAdd:
			for x, v := range cr {
				dr[x] += T(v)
			}
		case storeSet:
			for x, v := range cr {
				dr[x] = T(v)
			}
		case storeRowBias:
			b := T(bias[r])
			for x, v := range cr {
				dr[x] = T(v) + b
			}
		default:
			bias := bias[:w]
			for x, v := range cr {
				dr[x] = T(v) + T(bias[x])
			}
		}
	}
}

// microKernel is the portable mr×nr register tile: 32 accumulators kept
// live across the full k-block, B streamed from the packed panel. They
// start from zero, or from c under acc.
func microKernel(c *[mr * nr]float64, a0, a1, a2, a3, bp []float64, kcb int, acc bool) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	var c20, c21, c22, c23, c24, c25, c26, c27 float64
	var c30, c31, c32, c33, c34, c35, c36, c37 float64
	if acc {
		c00, c01, c02, c03, c04, c05, c06, c07 = c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		c10, c11, c12, c13, c14, c15, c16, c17 = c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15]
		c20, c21, c22, c23, c24, c25, c26, c27 = c[16], c[17], c[18], c[19], c[20], c[21], c[22], c[23]
		c30, c31, c32, c33, c34, c35, c36, c37 = c[24], c[25], c[26], c[27], c[28], c[29], c[30], c[31]
	}
	for p := 0; p < kcb; p++ {
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		av := a0[p]
		c00 += av * b[0]
		c01 += av * b[1]
		c02 += av * b[2]
		c03 += av * b[3]
		c04 += av * b[4]
		c05 += av * b[5]
		c06 += av * b[6]
		c07 += av * b[7]
		av = a1[p]
		c10 += av * b[0]
		c11 += av * b[1]
		c12 += av * b[2]
		c13 += av * b[3]
		c14 += av * b[4]
		c15 += av * b[5]
		c16 += av * b[6]
		c17 += av * b[7]
		av = a2[p]
		c20 += av * b[0]
		c21 += av * b[1]
		c22 += av * b[2]
		c23 += av * b[3]
		c24 += av * b[4]
		c25 += av * b[5]
		c26 += av * b[6]
		c27 += av * b[7]
		av = a3[p]
		c30 += av * b[0]
		c31 += av * b[1]
		c32 += av * b[2]
		c33 += av * b[3]
		c34 += av * b[4]
		c35 += av * b[5]
		c36 += av * b[6]
		c37 += av * b[7]
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = c00, c01, c02, c03, c04, c05, c06, c07
	c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15] = c10, c11, c12, c13, c14, c15, c16, c17
	c[16], c[17], c[18], c[19], c[20], c[21], c[22], c[23] = c20, c21, c22, c23, c24, c25, c26, c27
	c[24], c[25], c[26], c[27], c[28], c[29], c[30], c[31] = c30, c31, c32, c33, c34, c35, c36, c37
}

// microKernel1 is the 1×nr row-remainder tile.
func microKernel1(c *[mr * nr]float64, ar, bp []float64, kcb int) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	for p := 0; p < kcb; p++ {
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		av := ar[p]
		c0 += av * b[0]
		c1 += av * b[1]
		c2 += av * b[2]
		c3 += av * b[3]
		c4 += av * b[4]
		c5 += av * b[5]
		c6 += av * b[6]
		c7 += av * b[7]
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

// rowWorkers returns how many workers a row-partitioned kernel over the
// given row count and m*n*k volume should use: 1 (serial) for small work,
// otherwise GOMAXPROCS clamped to the row count. Callers on the hot path
// check for 1 and invoke their body directly, so the serial case never
// allocates a closure.
func rowWorkers(rows, volume int) int {
	workers := runtime.GOMAXPROCS(0)
	if volume < parallelThreshold || workers < 2 || rows < 2*mr {
		return 1
	}
	return min(workers, rows)
}

// The helper team. Row-partitioned kernels used to start one goroutine per
// chunk per cache block; they now hand chunks to a fixed team of at most
// GOMAXPROCS-1 long-lived helpers. The hand-off never blocks: the caller
// keeps chunk 0 for itself and runs inline any chunk no helper is idle to
// take, so a kernel finishes with or without help, helpers (which only ever
// run row kernels, never fan out themselves) cannot deadlock against
// callers, and when several training steps issue GEMMs at once the process
// still runs at most GOMAXPROCS-1 helpers beside them rather than
// GOMAXPROCS goroutines per product.

// rowTask is a kernel that can compute any row range of its output, plus
// the count of its chunks still out with helpers.
type rowTask interface {
	rows(lo, hi int)
	pending() *sync.WaitGroup
}

// fanout is the completion state a task shares with the helpers; tasks
// embed it so it is allocated (and pooled) with them.
type fanout struct{ wg sync.WaitGroup }

func (f *fanout) pending() *sync.WaitGroup { return &f.wg }

// rowJob is one chunk handed to a helper, by value.
type rowJob struct {
	task   rowTask
	lo, hi int
}

var (
	teamJobs = make(chan rowJob) // unbuffered: a send succeeds only to an idle helper
	teamMu   sync.Mutex          // serializes growth
	teamSize atomic.Int32
)

// ensureHelpers grows the team to want helpers. The team starts on the
// first parallel kernel, so a process that never runs one never has it;
// helpers live for the rest of the process.
func ensureHelpers(want int32) {
	if teamSize.Load() >= want {
		return
	}
	teamMu.Lock()
	for teamSize.Load() < want {
		teamSize.Add(1)
		go func() {
			for j := range teamJobs {
				j.task.rows(j.lo, j.hi)
				j.task.pending().Done()
			}
		}()
	}
	teamMu.Unlock()
}

// fanOutRows runs t over [0, rows) in tile-aligned chunks, sharing them
// with whatever helpers are idle. Alignment is what keeps results
// worker-count independent — every chunk start is a tile-height multiple,
// so the same rows land in full tiles (assembly kernel) versus the row
// remainder no matter how many workers split the range, or which of them
// runs which chunk. Callers have checked rowWorkers(rows, volume) >= 2.
func fanOutRows(t rowTask, rows, volume, align int) {
	workers := rowWorkers(rows, volume)
	ensureHelpers(int32(workers - 1))
	// Compute the chunk from the clamped worker count, then round up to a
	// multiple of the tile height; the chunk count is ceil(rows/chunk),
	// which never exceeds workers.
	chunk := (rows + workers - 1) / workers
	chunk = (chunk + align - 1) / align * align
	out := t.pending()
	for lo := chunk; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		out.Add(1)
		select {
		case teamJobs <- rowJob{task: t, lo: lo, hi: hi}:
		default:
			out.Done()
			t.rows(lo, hi)
		}
	}
	t.rows(0, min(chunk, rows))
	out.Wait()
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs a 2-D operand, got %v", a.Shape))
	}
	out := NewLike(a, a.Shape[1], a.Shape[0])
	TransposeInto(out, a)
	return out
}

// transposeTile is the cache-block edge for TransposeInto: an 8×8 tile of
// float64 is 512 B, so source and destination tiles both sit in L1.
const transposeTile = 8

// TransposeInto writes aᵀ into dst (shape n×m for a m×n), blocked so both
// the row-major reads and the column-major writes stay cache-resident.
// dst must not alias a. Hot paths pass a pooled dst (see GetTensor) so
// transposition allocates nothing.
func TransposeInto(dst, a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: TransposeInto needs a 2-D operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	checkDst("TransposeInto", dst, n, m)
	for ii := 0; ii < m; ii += transposeTile {
		ih := min(ii+transposeTile, m)
		for jj := 0; jj < n; jj += transposeTile {
			jh := min(jj+transposeTile, n)
			for i := ii; i < ih; i++ {
				row := a.Data[i*n : (i+1)*n]
				for j := jj; j < jh; j++ {
					dst.Data[j*m+i] = row[j]
				}
			}
		}
	}
	return dst
}
