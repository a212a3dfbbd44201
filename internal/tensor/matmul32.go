package tensor

import "time"

// The float32 compute tier of the blocked GEMM (matmul.go). The driver is
// the f64 tier's, instantiated with float32 panels; only the tier's facts
// change:
//
//   - B packs into 16-wide panels (nr32), narrowing as it lands, and each
//     tile row of a block is one sweep over all of its panels, in a body
//     chosen at init (DESIGN §14.2): on AVX-512 hosts 8×32 tiles over
//     panel pairs in sixteen ZMM accumulators; on other AVX2+FMA hosts
//     6×16 tiles in twelve YMM accumulators (a 4-row tile's 8 sit right at
//     the FMA latency × throughput product and stall, as the f64 kernel
//     does); elsewhere the portable panel loop, with NEON 6×16 tiles on
//     arm64. The assembly bodies keep the accumulators in registers across
//     the k-block and widen each tile straight into dst.
//   - Production runs one f32 instantiation: the MIXED path (the f64 entry
//     points in matmul.go running under the F32 precision policy) with a
//     float64 destination. Operands are narrowed once — A up front, B at
//     pack time — the sweep accumulates one k-block in f32, and its store
//     widens the partial sums into the float64 destination, so
//     accumulation ACROSS k-blocks (and the bias epilogue) stays float64;
//     a chained product therefore sums its k-blocks like an accumulating
//     one (gemmShape.mixed). The float32-destination instantiation (f32 in,
//     f32 out) is the tests' pure-f32 reference the mixed path is held to.
//   - Every row stays on the sweep: the f64 tier's scalar row remainder
//     has no f32 counterpart.
//   - A kcBlock×nr32 packed panel of float32 is 16 KiB — the same
//     footprint as the float64 panel — so the f64 cache-block tuning
//     carries over unchanged. Panels and the narrowed A come from the f32
//     scratch arena (getF32).
//
// Determinism matches the f64 tier: every output element is computed by
// exactly one worker with a fixed k-accumulation order, so results are
// bit-identical for any worker count (parallel32_test.go holds this).

// nr32 is the f32 packed panel's width: two 8-lane AVX2 registers, one
// 16-lane AVX-512 register, or four 4-lane NEON registers. mr32 is the
// tile height of the portable, NEON and AVX2 bodies, mrA32 that of the
// AVX-512 body; like the f64 sweep, the f32 sweep takes mrA (= mrA32) A
// rows. tileRows32 is the running body's height, which the f32 parallel
// fan-out aligns its chunks to, so row grouping is the same at every
// worker count.
const (
	nr32  = 16
	mr32  = 6
	mrA32 = 8
)

// packPanel32Go packs kcb rows of w ≤ nr32 values, ld apart in src, into
// the nr32-wide panel d, narrowing each and zero-padding lanes w..nr32:
// the portable loop behind packPanel in the f32 tier.
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
// and zero-padding lanes w..nr32: the portable loop behind packPanelT in
// the f32 tier.
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

// microKernel32 is the portable mr32×nr32 tile, in c's first mr32 rows.
// Unlike the float64 kernel it keeps the accumulators in a stack array
// rather than named scalars; it is the fallback for CPUs without the
// assembly sweeps, not a path the supported architectures hit.
func microKernel32(c *[mrA32 * nr32]float32, a *[mrA32][]float32, bp []float32, kcb int) {
	var acc [mr32 * nr32]float32
	for p := 0; p < kcb; p++ {
		b := bp[p*nr32 : p*nr32+nr32 : p*nr32+nr32]
		for r := 0; r < mr32; r++ {
			av := a[r][p]
			cr := acc[r*nr32 : (r+1)*nr32]
			for x, bv := range b {
				cr[x] += av * bv
			}
		}
	}
	copy(c[:], acc[:])
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
