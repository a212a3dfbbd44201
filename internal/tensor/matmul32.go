package tensor

import (
	"sync"
	"time"
)

// The float32 compute tier's GEMM. It reuses the Goto/BLIS decomposition,
// cache-block sizes, and row-parallel fan-out of the float64 driver in
// matmul.go — only the element width and the micro-tile change:
//
//   - The micro-kernel is mr32×nr32 = 6×16: with 8 float32 lanes per AVX2
//     register (4 per NEON register) a 16-wide tile costs the same two
//     register loads per packed-B row as the float64 kernel's 8-wide tile,
//     while each FMA moves twice the FLOPs. The tile is 6 rows instead of
//     the f64 kernel's 4 because 8 accumulator registers sit exactly at
//     the FMA-latency × throughput product — the f64 kernel can't quite
//     keep both FMA ports busy, and a 4×16 f32 kernel inherits the same
//     stall, capping the tier below 2x. Twelve accumulators give the
//     scheduler slack, so the f32 kernel reaches the FMA-port bound.
//   - The driver is generic over the destination width, and production
//     runs one instantiation: the MIXED path (the f64 entry points in
//     matmul.go running under the F32 precision policy) with T = float64.
//     Operands are narrowed once — A up front, B at pack time — the
//     micro-kernel accumulates one k-block in f32, and the store widens
//     the partial sums into the float64 destination, so accumulation
//     ACROSS k-blocks (and the bias epilogue) stays float64. The
//     T = float32 instantiation (f32 in, f32 out) is the tests' pure-f32
//     reference the mixed path is held to.
//   - A kcBlock×nr32 packed panel of float32 is 16 KiB — the same
//     footprint as the float64 panel — so the f64 cache-block tuning
//     carries over unchanged.
//
// Determinism matches the f64 driver: every output element is computed by
// exactly one worker with a fixed k-accumulation order, so results are
// bit-identical for any worker count (parallel32_test.go holds this).

// nr32 is the f32 micro-kernel width: two 8-lane AVX2 registers, or four
// 4-lane NEON registers. mr32 is the tile height; the f32 parallel
// fan-out aligns its chunks to mr32 (not the f64 mr) so row grouping —
// and therefore which rows run the assembly tile versus the scalar
// remainder — is identical at every worker count.
const (
	nr32 = 16
	mr32 = 6
)

// elem constrains the generic driver to the two storage widths.
type elem interface{ ~float32 | ~float64 }

// gemmShape32 carries one product's geometry through the f32 driver. T is
// the storage type of B, bias, and the destination; A is always narrowed
// to float32 before the driver runs.
type gemmShape32[T elem] struct {
	m, k, n int
	transB  bool     // b is n×k instead of k×n
	bias    []T      // optional epilogue bias, length n (m under rowBias)
	rowBias bool     // bias is per row of dst instead of per column
	pre     *PackedB // B already packed (b is then unused), or nil
	acc     bool     // add into dst instead of overwriting it; no bias
	inner   bool     // serial and untimed, as gemmShape.inner
}

// gemmMixed is the F32-policy entry for the float64-facing GEMMs: narrow A
// once into a pooled f32 buffer, then run the generic driver with float64
// B/bias/destination (B narrows at pack time, partial sums widen at store
// time). Called from matmul.go's gemm before its own timing starts; the
// generic driver records the GEMM metrics instead.
func gemmMixed(dst, a, b []float64, s gemmShape) {
	a32 := getF32(s.m * s.k)
	NarrowSlice(a32, a[:s.m*s.k])
	gemm32(dst, a32, b, s.mixed())
	putF32(a32)
}

// mixed is s as the mixed path's driver shape: chained products sum their
// k-blocks in float64 like accumulating ones.
func (s gemmShape) mixed() gemmShape32[float64] {
	return gemmShape32[float64]{m: s.m, k: s.k, n: s.n, transB: s.transB,
		bias: s.bias, rowBias: s.rowBias, pre: s.pre, acc: s.acc || s.chain, inner: s.inner}
}

// gemm32 is the blocked driver: dst (m×n, fully overwritten) =
// widen(a32·op(narrow(b))) + bias, or dst += widen(…) under s.acc, with
// the widening a no-op for T = float32.
func gemm32[T elem](dst []T, a32 []float32, b []T, s gemmShape32[T]) {
	if s.m == 0 || s.n == 0 {
		return
	}
	if s.k == 0 {
		fillBias32(dst, s)
		return
	}
	vol := s.m * s.n * s.k
	timed := vol >= gemmTimedVolume && !s.inner
	var start time.Time
	if timed {
		start = time.Now()
	}

	var bpack []float32
	if s.pre == nil {
		bpack = getF32(packLen(s.k, s.n, nr32))
	}
	var task *gemmTask32[T]
	if !s.inner && rowWorkers(s.m, vol) >= 2 {
		task, _ = gemmTasks32[T]().Get().(*gemmTask32[T])
		if task == nil {
			task = new(gemmTask32[T])
		}
		task.dst, task.a32, task.s = dst, a32, s
	}
	for jc := 0; jc < s.n; jc += ncBlock {
		ncb := min(ncBlock, s.n-jc)
		for pc := 0; pc < s.k; pc += kcBlock {
			kcb := min(kcBlock, s.k-pc)
			bp := bpack
			if s.pre != nil {
				bp = s.pre.d32[blockOffset(s.k, pc, jc, ncb, nr32):]
			} else {
				packB32(bp, b, pc, jc, kcb, ncb, s)
			}
			first := pc == 0 && !s.acc
			if task == nil {
				gemmRows32(dst, a32, bp, 0, s.m, pc, jc, kcb, ncb, s, first)
			} else {
				task.bpack, task.pc, task.jc, task.kcb, task.ncb, task.first = bp, pc, jc, kcb, ncb, first
				fanOutRows(task, s.m, vol, mr32)
			}
		}
	}
	if bpack != nil {
		putF32(bpack)
	}
	if task != nil {
		task.dst, task.a32, task.bpack, task.s = nil, nil, nil, gemmShape32[T]{} // pin nothing while pooled
		gemmTasks32[T]().Put(task)
	}

	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// fillBias32 handles the degenerate k == 0 product: dst = bias (or zero).
func fillBias32[T elem](dst []T, s gemmShape32[T]) {
	for i := 0; i < s.m; i++ {
		row := dst[i*s.n : (i+1)*s.n]
		switch {
		case s.bias == nil:
			clear(row)
		case s.rowBias:
			for j := range row {
				row[j] = s.bias[i]
			}
		default:
			copy(row, s.bias)
		}
	}
}

// packB32 packs the (kcb × ncb) block of op(b) at (pc, jc) into nr32-wide
// float32 column panels, narrowing each element as it lands (a no-op for
// float32 sources). Layout matches packB: panel jp holds columns
// [jc+jp*nr32, jc+jp*nr32+nr32) as kcb rows of nr32 contiguous values,
// zero-padded past ncb so the micro-kernel never sees a ragged panel.
func packB32[T elem](dst []float32, b []T, pc, jc, kcb, ncb int, s gemmShape32[T]) {
	panels := (ncb + nr32 - 1) / nr32
	for jp := 0; jp < panels; jp++ {
		d, col := dst[jp*kcb*nr32:(jp+1)*kcb*nr32], jc+jp*nr32
		w := min(nr32, ncb-jp*nr32)
		if s.transB {
			// op(b) = bᵀ with b n×k: column col+j of op(b) is row col+j of b.
			packPanelT32(d, b[col*s.k+pc:], s.k, kcb, w)
		} else {
			packPanel32(d, b[pc*s.n+col:], s.n, kcb, w)
		}
	}
}

// packPanel32Go packs kcb rows of w ≤ nr32 values, ld apart in src, into
// the nr32-wide panel d, narrowing each and zero-padding lanes w..nr32:
// the portable loop behind packPanel32.
func packPanel32Go[T elem](d []float32, src []T, ld, kcb, w int) {
	for p := 0; p < kcb; p++ {
		dp := d[p*nr32 : p*nr32+nr32]
		for j, v := range src[p*ld : p*ld+w] {
			dp[j] = float32(v)
		}
		clear(dp[w:])
	}
}

// packPanelT32Go packs w ≤ nr32 columns of kcb values — column j is the
// run src[j*ld : j*ld+kcb] — into the nr32-wide panel d, narrowing each
// and zero-padding lanes w..nr32: the portable loop behind packPanelT32.
func packPanelT32Go[T elem](d []float32, src []T, ld, kcb, w int) {
	for j := 0; j < w; j++ {
		for p, v := range src[j*ld : j*ld+kcb] {
			d[p*nr32+j] = float32(v)
		}
	}
	if w < nr32 {
		for p := 0; p < kcb; p++ {
			clear(d[p*nr32+w : p*nr32+nr32])
		}
	}
}

// gemmTask32 is gemmTask for the f32 driver: one pooled task per parallel
// product, block fields rewritten between fan-outs.
type gemmTask32[T elem] struct {
	fanout
	dst              []T
	a32, bpack       []float32
	pc, jc, kcb, ncb int
	s                gemmShape32[T]
	first            bool
}

func (t *gemmTask32[T]) rows(lo, hi int) {
	gemmRows32(t.dst, t.a32, t.bpack, lo, hi, t.pc, t.jc, t.kcb, t.ncb, t.s, t.first)
}

// One task pool per instantiation of the driver.
var gemmTasksPure, gemmTasksMixed sync.Pool

func gemmTasks32[T elem]() *sync.Pool {
	var z T
	if _, pure := any(z).(float32); pure {
		return &gemmTasksPure
	}
	return &gemmTasksMixed
}

// gemmRows32 computes rows [i0, i1) of dst against the packed B block.
// first marks the k-block that overwrites dst (folding in the bias); later
// k-blocks accumulate — in dst's own precision, so the mixed path sums its
// f32 k-block partials in float64.
func gemmRows32[T elem](dst []T, a32, bpack []float32, i0, i1, pc, jc, kcb, ncb int, s gemmShape32[T], first bool) {
	panels := (ncb + nr32 - 1) / nr32
	var ctile [mr32 * nr32]float32
	i := i0
	for ; i+mr32 <= i1; i += mr32 {
		a0 := a32[(i+0)*s.k+pc : (i+0)*s.k+pc+kcb]
		a1 := a32[(i+1)*s.k+pc : (i+1)*s.k+pc+kcb]
		a2 := a32[(i+2)*s.k+pc : (i+2)*s.k+pc+kcb]
		a3 := a32[(i+3)*s.k+pc : (i+3)*s.k+pc+kcb]
		a4 := a32[(i+4)*s.k+pc : (i+4)*s.k+pc+kcb]
		a5 := a32[(i+5)*s.k+pc : (i+5)*s.k+pc+kcb]
		for jp := 0; jp < panels; jp++ {
			bp := bpack[jp*kcb*nr32 : (jp+1)*kcb*nr32]
			microKernel32(&ctile, a0, a1, a2, a3, a4, a5, bp, kcb)
			j := jc + jp*nr32
			w := min(nr32, ncb-jp*nr32)
			s.store(dst, &ctile, i, mr32, j, w, first)
		}
	}
	// Row remainder (1..mr32-1 rows): run the full 6-row kernel with the
	// missing row slices aliased to the last valid row — the kernel only
	// reads A and keeps one independent accumulator chain per row, so the
	// valid rows' results are bit-identical to a full tile's — then store
	// just the valid rows. This keeps the remainder on the assembly kernel
	// instead of a scalar loop (at m=256, mr32=6 leaves 4 remainder rows;
	// scalar ones cost more than the other 252 combined saved).
	if rem := i1 - i; rem > 0 {
		var rows [mr32][]float32
		for r := 0; r < mr32; r++ {
			ri := min(i+r, i1-1)
			rows[r] = a32[ri*s.k+pc : ri*s.k+pc+kcb]
		}
		for jp := 0; jp < panels; jp++ {
			bp := bpack[jp*kcb*nr32 : (jp+1)*kcb*nr32]
			microKernel32(&ctile, rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], bp, kcb)
			j := jc + jp*nr32
			w := min(nr32, ncb-jp*nr32)
			s.store(dst, &ctile, i, rem, j, w, first)
		}
	}
}

// store writes the first rows × w lanes of tile c into dst at row i,
// column j, widening each f32 partial sum to dst's precision: overwriting
// on the first k-block, with the bias of each row or of each column folded
// in, and accumulating on later ones.
func (s *gemmShape32[T]) store(dst []T, c *[mr32 * nr32]float32, i, rows, j, w int, first bool) {
	mode, bias := storeMode(s.bias, s.rowBias, i, j, first)
	storeTile32(dst[i*s.n+j:], c, s.n, rows, w, mode, bias)
}

// storeTile32Go lands the first rows × w lanes of tile c in d (row stride
// ld) by mode, widening each partial sum to T: the portable loop behind
// storeTile32.
func storeTile32Go[T elem](d []T, c *[mr32 * nr32]float32, ld, rows, w, mode int, bias []T) {
	for r := 0; r < rows; r++ {
		dr, cr := d[r*ld:][:w], c[r*nr32:][:w]
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
			b := bias[r]
			for x, v := range cr {
				dr[x] = T(v) + b
			}
		default:
			bias := bias[:w]
			for x, v := range cr {
				dr[x] = T(v) + bias[x]
			}
		}
	}
}

// microKernel32Go is the portable mr32×nr32 tile. Unlike the float64
// kernel it keeps the accumulators in a stack array rather than named
// scalars; it is the fallback for CPUs without the assembly kernels, not a
// path the supported architectures hit.
func microKernel32Go(c *[mr32 * nr32]float32, a0, a1, a2, a3, a4, a5, bp []float32, kcb int) {
	var acc [mr32 * nr32]float32
	for p := 0; p < kcb; p++ {
		b := bp[p*nr32 : p*nr32+nr32 : p*nr32+nr32]
		a := [mr32]float32{a0[p], a1[p], a2[p], a3[p], a4[p], a5[p]}
		for r := 0; r < mr32; r++ {
			av := a[r]
			cr := acc[r*nr32 : (r+1)*nr32]
			for x, bv := range b {
				cr[x] += av * bv
			}
		}
	}
	*c = acc
}

// transADirect32 is the F32-policy version of transADirect: both operands
// narrow once into pooled f32 buffers, the rank-1 updates accumulate in
// f32 through axpyRow32, and the finished product widens into the float64
// destination. Serial by construction, like its f64 sibling.
func transADirect32(dst, a, b []float64, m, k, n int) {
	vol := m * k * n
	timed := vol >= gemmTimedVolume
	var start time.Time
	if timed {
		start = time.Now()
	}
	a32 := getF32(k * m)
	b32 := getF32(k * n)
	d32 := getF32(m * n)
	NarrowSlice(a32, a[:k*m])
	NarrowSlice(b32, b[:k*n])
	for i := range d32 {
		d32[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a32[p*m : (p+1)*m]
		brow := b32[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow32(d32[i*n:(i+1)*n], brow, av)
		}
	}
	WidenSlice(dst[:m*n], d32)
	putF32(d32)
	putF32(b32)
	putF32(a32)
	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// axpyRow32Go is the portable dst += alpha·src loop behind axpyRow32.
func axpyRow32Go(dst, src []float32, alpha float32) {
	for j, v := range src[:len(dst)] {
		dst[j] += alpha * v
	}
}
