//go:build amd64

package tensor

// The AVX2 routines need FMA3, AVX2, and OS support for saving YMM state;
// the f32 tier's AVX-512 sweep also needs AVX-512F and DQ and OS support
// for saving ZMM and opmask state. Detection runs once at init;
// hasFMAKernel and sweep32Body are read-only afterwards.
var hasFMAKernel, sweep32Body = detectCPU()

// tileRows32 is the running f32 sweep's tile height.
var tileRows32 = sweep32Rows(sweep32Body)

// sweep32Rows is the tile height of an f32 sweep body.
func sweep32Rows(body int) int {
	if body == body32AVX512 {
		return mrA32
	}
	return mr32
}

func detectCPU() (fma bool, body int) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	_, _, ecx1, _ := cpuidex(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuidex(7, 0)
	}
	if ecx1&osxsaveBit != 0 {
		xcr0, _ = xgetbv0()
	}
	return decodeCPU(ecx1, ebx7, xcr0)
}

// CPUID leaf 1 ECX, leaf 7 EBX and XCR0 bits the kernels depend on.
const (
	fmaBit      = 1 << 12 // leaf 1 ECX: FMA3
	osxsaveBit  = 1 << 27 // leaf 1 ECX: XGETBV usable
	avxBit      = 1 << 28 // leaf 1 ECX: AVX
	avx2Bit     = 1 << 5  // leaf 7 EBX: AVX2
	avx512fBit  = 1 << 16 // leaf 7 EBX: AVX-512 Foundation
	avx512dqBit = 1 << 17 // leaf 7 EBX: AVX-512 DQ (VEXTRACTF32X8)
	xcr0YMM     = 0x06    // XCR0: SSE and AVX state
	xcr0ZMM     = 0xe0    // XCR0: opmask, ZMM0-15 upper halves, ZMM16-31
)

// decodeCPU reads the feature bits: fma is the AVX2+FMA envelope every
// amd64 routine here needs (hasFMAKernel), body the f32 sweep that runs.
// XCR0 must show the OS saves the registers a body uses, or the body's
// instructions fault or lose state on a context switch. A caller without
// leaf 7 passes ebx7 = 0; one without OSXSAVE passes xcr0 = 0.
func decodeCPU(ecx1, ebx7, xcr0 uint32) (fma bool, body int) {
	fma = ecx1&(fmaBit|osxsaveBit|avxBit) == fmaBit|osxsaveBit|avxBit &&
		xcr0&xcr0YMM == xcr0YMM && ebx7&avx2Bit != 0
	switch {
	case !fma:
		return false, body32Go
	case ebx7&(avx512fBit|avx512dqBit) == avx512fBit|avx512dqBit && xcr0&xcr0ZMM == xcr0ZMM:
		return true, body32AVX512
	}
	return true, body32AVX2
}

// sweep computes one tile row of a product's (kc, nc) block into d (see
// sweepGo), running the whole row in the AVX2+FMA assembly routine when
// the CPU supports it: the 4×8 accumulators stay in registers across the
// k-block and land in d in the block's mode, panel after panel.
//
// The FMA routine rounds once per multiply-add, so its results can differ
// from the portable loop in the last ulp; callers comparing against a
// scalar reference must use a tolerance (see the GEMM property tests).
// Within one process the dispatch is constant, so GEMM stays bit-for-bit
// deterministic across runs and across worker counts.
func sweep(d []float64, a *[mr][]float64, bpack []float64, ld, kcb, ncb, rows, mode int, bias []float64) {
	if !hasFMAKernel {
		sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias)
		return
	}
	_ = d[(rows-1)*ld+ncb-1]
	_ = bpack[roundUp(ncb, nr)*kcb-1]
	for r := range a {
		_ = a[r][kcb-1]
	}
	// A missing row of a remainder tile aliases the last valid one: its A
	// row (set by the caller), its offset in d and its row bias.
	var o [mr]int
	for r := range o {
		o[r] = min(r, rows-1) * ld
	}
	var rb [mr]float64
	var bp *float64
	switch mode {
	case storeRowBias:
		for r := range rb {
			rb[r] = bias[min(r, rows-1)]
		}
		bp = &rb[0]
	case storeColBias:
		_ = bias[ncb-1]
		bp = &bias[0]
	}
	fmaSweep4x8(&d[0], &a[0][0], &a[1][0], &a[2][0], &a[3][0], &bpack[0], bp, o[1], o[2], o[3], kcb, ncb, mode)
}

// fmaSweep4x8 lands the 4×8 tiles of one tile row against every packed
// panel in d, by mode. Implemented in kernel_amd64.s.
//
//go:noescape
func fmaSweep4x8(d, a0, a1, a2, a3, bp, bias *float64, o1, o2, o3, kc, nc, mode int)

// fmaAxpy computes dst[i] += alpha*src[i] for i in [0, n) with AVX2 FMA.
// Implemented in kernel_amd64.s.
//
//go:noescape
func fmaAxpy(dst, src *float64, alpha float64, n int)

// axpyRow adds alpha·src into dst (equal lengths), dispatching to the FMA
// kernel when the CPU supports it. Like sweep, the FMA path rounds once
// per multiply-add, so it can differ from the portable loop in the
// last ulp.
func axpyRow(dst, src []float64, alpha float64) {
	if hasFMAKernel && len(dst) > 0 {
		fmaAxpy(&dst[0], &src[0], alpha, len(dst))
		return
	}
	axpyRowGo(dst, src, alpha)
}

// fmaAddRows adds rows runs of run values, lds apart in src, into dst,
// ldd apart, with AVX2 FMA. Implemented in kernel_amd64.s.
//
//go:noescape
func fmaAddRows(dst, src *float64, ldd, lds, run, rows int)

// addRows adds rows runs of run values, lds apart in src, into dst, ldd
// apart (see addRowsGo), in one call to the FMA routine when the CPU
// supports it. src is only read.
func addRows(dst, src []float64, ldd, lds, run, rows int) {
	if hasFMAKernel && run > 0 && rows > 0 {
		_ = dst[(rows-1)*ldd+run-1]
		_ = src[(rows-1)*lds+run-1]
		fmaAddRows(&dst[0], &src[0], ldd, lds, run, rows)
		return
	}
	addRowsGo(dst, src, ldd, lds, run, rows)
}

// avxRelu computes dst[i] = max(src[i], 0) for i in [0, n), n a multiple
// of 4. Implemented in kernel_amd64.s.
//
//go:noescape
func avxRelu(dst, src *float64, n int)

// avxReluGate computes dst[i] = g[i] masked by y[i] > 0 for i in [0, n),
// n a multiple of 4. Implemented in kernel_amd64.s.
//
//go:noescape
func avxReluGate(dst, y, grad *float64, n int)

// reluKernel rectifies with the AVX2 kernel, finishing any sub-vector
// remainder with the portable loop.
func reluKernel(dst, x []float64) {
	if hasFMAKernel {
		if n4 := len(x) &^ 3; n4 > 0 {
			avxRelu(&dst[0], &x[0], n4)
			dst, x = dst[n4:], x[n4:]
		}
	}
	reluGo(dst, x)
}

// reluGateKernel gates gradients with the AVX2 kernel, finishing any
// sub-vector remainder with the portable loop.
func reluGateKernel(dst, y, g []float64) {
	if hasFMAKernel {
		if n4 := len(y) &^ 3; n4 > 0 {
			avxReluGate(&dst[0], &y[0], &g[0], n4)
			dst, y, g = dst[n4:], y[n4:], g[n4:]
		}
	}
	reluGateGo(dst, y, g)
}

// --- float32 tier ---------------------------------------------------------

// The f32 sweep's bodies (sweep32Body).
const (
	body32Go     = iota // the portable panel loop, sweep32Go
	body32AVX2          // fmaSweep6x16: 6×16 tiles in twelve YMM accumulators
	body32AVX512        // avx512Sweep8x32: 8×32 tiles over panel pairs in sixteen ZMM ones
)

// sweep32 computes one tile row of a product's (kc, nc) block into d (see
// sweep32Go) in the body chosen at init. On the mixed path (float64 d)
// the assembly body walks the whole row: the accumulators stay in
// registers across the k-block and each tile widens straight into d in
// the block's mode. The pure-f32 instantiation (float32 d, the tests'
// reference) computes each tile with the same body and lands it with the
// portable store, so the two paths keep the same partial sums.
//
// Both assembly bodies round once per multiply-add, so their results can
// differ from the portable loop in the last ulp; they equal each other
// bit for bit. Within one process the dispatch is constant, so GEMM stays
// bit-for-bit deterministic across runs and across worker counts.
func sweep32[T elem](d []T, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []T) {
	if sweep32Body == body32Go {
		sweep32Go(d, a, bpack, ld, kcb, ncb, rows, mode, bias)
		return
	}
	if d64, ok := any(d).([]float64); ok {
		sweepAsm32(sweep32Body, d64, a, bpack, ld, kcb, ncb, rows, mode, any(bias).([]float64))
		return
	}
	sweepTiles32(d, a, bpack, ld, kcb, ncb, rows, mode, bias, true)
}

// sweepAsm32 runs the f32 sweep body into the float64 d, after checking
// every bound the assembly relies on. kcb ≥ 1.
func sweepAsm32(body int, d []float64, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []float64) {
	_ = d[(rows-1)*ld+ncb-1]
	_ = bpack[roundUp(ncb, nr32)*kcb-1]
	for r := range a {
		_ = a[r][kcb-1]
	}
	var bp *float64
	switch mode {
	case storeRowBias:
		_ = bias[rows-1]
		bp = &bias[0]
	case storeColBias:
		_ = bias[ncb-1]
		bp = &bias[0]
	}
	if body == body32AVX512 {
		avx512Sweep8x32(&d[0], a, &bpack[0], bp, ld, kcb, ncb, rows, mode)
		return
	}
	fmaSweep6x16(&d[0], a, &bpack[0], bp, ld, kcb, ncb, rows, mode)
}

// fusedTile32 computes the tileRows32×nr32 tile of one panel into c with
// the assembly body, for the pure-f32 instantiation: set mode into a
// float64 tile (widening is exact), narrowed back.
func fusedTile32(c *[mrA32 * nr32]float32, a *[mrA32][]float32, bp []float32, kcb int) {
	var t [mrA32 * nr32]float64
	sweepAsm32(sweep32Body, t[:], a, bp, nr32, kcb, nr32, tileRows32, storeSet, nil)
	for i, v := range t {
		c[i] = float32(v)
	}
}

// fmaSweep6x16 lands the 6×16 tiles of one tile row against every packed
// panel in d, by mode, with AVX2+FMA. Implemented in kernel_amd64.s.
//
//go:noescape
func fmaSweep6x16(d *float64, a *[mrA32][]float32, bp *float32, bias *float64, ld, kc, nc, rows, mode int)

// avx512Sweep8x32 is fmaSweep6x16 with AVX-512: 8×32 tiles, two panels
// at a time. Implemented in kernel_amd64.s.
//
//go:noescape
func avx512Sweep8x32(d *float64, a *[mrA32][]float32, bp *float32, bias *float64, ld, kc, nc, rows, mode int)

// fmaAxpy32 computes dst[i] += alpha*src[i] for i in [0, n) with AVX2 FMA.
// Implemented in kernel_amd64.s.
//
//go:noescape
func fmaAxpy32(dst, src *float32, alpha float32, n int)

// axpyRow32 adds alpha·src into dst (equal lengths), dispatching to the
// f32 FMA kernel when the CPU supports it.
func axpyRow32(dst, src []float32, alpha float32) {
	if hasFMAKernel && len(dst) > 0 {
		fmaAxpy32(&dst[0], &src[0], alpha, len(dst))
		return
	}
	axpyRow32Go(dst, src, alpha)
}

// cpuidex executes CPUID with the given leaf/subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE, checked by the caller).
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// --- GEMM edges -------------------------------------------------------------
//
// The loops around the sweeps: packing B panels, staging a transposed A,
// and the optimizer's momentum step. The AVX2 routines (edge_amd64.s)
// take whole panels and 4-aligned k spans; ragged panels and k tails run
// the portable loops they replace, which they match bit for bit.

//go:noescape
func avxPackRows(dst, src *float64, ld, kcb int)

//go:noescape
func avxPackCols(dst, src *float64, ld, kc4 int)

//go:noescape
func avxPackRows32(dst *float32, src *float64, ld, kcb int)

//go:noescape
func avxPackCols32(dst *float32, src *float64, ld, kc4 int)

//go:noescape
func avxTransNarrow(dst *float32, src *float64, lds, ldd, k4 int)

//go:noescape
func avxMomentum(w, v, grad *float64, mu, alpha float64, n int)

// packPanel packs kcb rows of w values, ld apart in src, into the nr-wide
// panel d (see packPanelGo).
func packPanel(d, src []float64, ld, kcb, w int) {
	if hasFMAKernel && w == nr && kcb > 0 {
		_ = src[(kcb-1)*ld+nr-1]
		_ = d[kcb*nr-1]
		avxPackRows(&d[0], &src[0], ld, kcb)
		return
	}
	packPanelGo(d, src, ld, kcb, w)
}

// packPanelT packs w columns of kcb values, each contiguous and ld apart
// in src, into the nr-wide panel d (see packPanelTGo): 4×4 transposes
// over the whole k steps in fours, the portable loop for the rest.
func packPanelT(d, src []float64, ld, kcb, w int) {
	if k4 := kcb &^ 3; hasFMAKernel && w == nr && k4 > 0 {
		_ = src[(nr-1)*ld+k4-1]
		_ = d[k4*nr-1]
		avxPackCols(&d[0], &src[0], ld, k4)
		d, src, kcb = d[k4*nr:], src[k4:], kcb-k4
	}
	packPanelTGo(d, src, ld, kcb, w)
}

// packPanel32 is packPanel for the f32 tier's nr32-wide panel, narrowing a
// float64 source as it packs.
func packPanel32[T elem](d []float32, src []T, ld, kcb, w int) {
	if s, ok := any(src).([]float64); ok && hasFMAKernel && w == nr32 && kcb > 0 {
		_ = s[(kcb-1)*ld+nr32-1]
		_ = d[kcb*nr32-1]
		avxPackRows32(&d[0], &s[0], ld, kcb)
		return
	}
	packPanel32Go(d, src, ld, kcb, w)
}

// packPanelT32 is packPanelT for the f32 tier's nr32-wide panel, narrowing
// a float64 source as it packs.
func packPanelT32[T elem](d []float32, src []T, ld, kcb, w int) {
	if s, ok := any(src).([]float64); ok && hasFMAKernel && w == nr32 {
		if k4 := kcb &^ 3; k4 > 0 {
			_ = s[(nr32-1)*ld+k4-1]
			_ = d[k4*nr32-1]
			avxPackCols32(&d[0], &s[0], ld, k4)
			d, src, kcb = d[k4*nr32:], src[k4:], kcb-k4
		}
	}
	packPanelT32Go(d, src, ld, kcb, w)
}

// transposeNarrow writes dst (m×k) = float32(aᵀ) for a k×m: 4×4
// transposes over the 4-aligned block, the portable loop for the edges.
func transposeNarrow(dst []float32, a []float64, k, m int) {
	m4, k4 := m&^3, k&^3
	if !hasFMAKernel || m4 == 0 || k4 == 0 {
		transposeNarrowGo(dst, a, k, m, 0, 0)
		return
	}
	_ = a[(k4-1)*m+m4-1]
	_ = dst[(m4-1)*k+k4-1]
	for i := 0; i < m4; i += 4 {
		avxTransNarrow(&dst[i*k], &a[i], m, k, k4)
	}
	transposeNarrowGo(dst, a, k, m, m4, k4)
}

// momentumStep is the fused momentum-SGD update (see momentumStepGo).
func momentumStep(w, v, g []float64, mu, alpha float64) {
	if hasFMAKernel && len(w) > 0 {
		_, _ = v[len(w)-1], g[len(w)-1]
		avxMomentum(&w[0], &v[0], &g[0], mu, alpha, len(w))
		return
	}
	momentumStepGo(w, v, g, mu, alpha)
}
