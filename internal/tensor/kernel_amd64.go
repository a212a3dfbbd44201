//go:build amd64

package tensor

// The AVX2 micro-kernel needs FMA3, AVX2, and OS support for saving YMM
// state. Detection runs once at init; hasFMAKernel is read-only afterwards.
var hasFMAKernel = detectFMAKernel()

func detectFMAKernel() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS saves YMM
	// registers across context switches.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
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
//
// The f32 kernels gate on the same AVX2+FMA+OSXSAVE detection as the f64
// ones: every instruction they add (VFMADD231PS, VBROADCASTSS) is part of
// the same feature envelope.

// microKernel32 computes the mr32×nr32 tile into c (overwriting it),
// dispatching to the widened 8-lane-per-register AVX2+FMA kernel when the
// CPU supports it. Same rounding caveat as sweep: FMA fuses the
// multiply-add, so results differ from the portable kernel in the last
// ulp but stay bit-identical within one process.
func microKernel32(c *[mr32 * nr32]float32, a0, a1, a2, a3, a4, a5, bp []float32, kcb int) {
	if hasFMAKernel && kcb > 0 {
		fmaKernel6x16(&a0[0], &a1[0], &a2[0], &a3[0], &a4[0], &a5[0], &bp[0], &c[0], kcb)
		return
	}
	microKernel32Go(c, a0, a1, a2, a3, a4, a5, bp, kcb)
}

// fmaKernel6x16 accumulates c[6][16] = Σ_p a{r}[p] * bp[p*16+j] over p in
// [0, kc) with AVX2 FMA, overwriting c. Implemented in kernel_amd64.s.
//
//go:noescape
func fmaKernel6x16(a0, a1, a2, a3, a4, a5, bp, c *float32, kc int)

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
// The loops around the micro-kernels: packing B panels, landing tiles in
// the destination, staging a transposed A, and the optimizer's momentum
// step. The AVX2 routines (edge_amd64.s) take whole panels, whole tiles
// and 4-aligned k spans; ragged panels and k tails run the portable loops
// they replace, which they match bit for bit.

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
func avxStoreTile32(dst *float64, c *float32, bias *float64, ld, rows, mode int)

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

// storeTile32 is storeTile for the f32 tier's tile, widening each partial
// sum into a float64 destination.
func storeTile32[T elem](d []T, c *[mr32 * nr32]float32, ld, rows, w, mode int, bias []T) {
	if d64, ok := any(d).([]float64); ok && hasFMAKernel && w == nr32 && rows > 0 {
		_ = d64[(rows-1)*ld+nr32-1]
		var bp *float64
		switch mode {
		case storeRowBias:
			b64 := any(bias).([]float64)
			_ = b64[rows-1]
			bp = &b64[0]
		case storeColBias:
			b64 := any(bias).([]float64)
			_ = b64[nr32-1]
			bp = &b64[0]
		}
		avxStoreTile32(&d64[0], &c[0], bp, ld, rows, mode)
		return
	}
	storeTile32Go(d, c, ld, rows, w, mode, bias)
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
