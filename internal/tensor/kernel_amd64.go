//go:build amd64

package tensor

// The AVX2 routines need FMA3, AVX2, and OS support for saving YMM state;
// the AVX-512 sweeps also need AVX-512F and DQ and OS support for saving
// ZMM and opmask state. Detection runs once at init; hasFMAKernel and
// sweepBody, the sweep level both tiers run, are read-only afterwards.
var hasFMAKernel, sweepBody = detectCPU()

// tileRows and tileRows32 are the running f64 and f32 sweeps' tile
// heights.
var tileRows, tileRows32 = sweepRows(sweepBody), sweep32Rows(sweepBody)

// The sweep bodies, one level for both tiers (sweepBody).
const (
	bodyGo     = iota // the portable panel loop, sweepGo
	bodyAVX2          // fmaSweep4x8 (f64, 4×8 tiles) and fmaSweep6x16 (f32, 6×16), in YMM accumulators
	bodyAVX512        // avx512Sweep8x16 (f64, 8×16) and avx512Sweep8x32 (f32, 8×32), over panel pairs in ZMM ones
)

// sweepRows is the tile height of an f64 sweep body.
func sweepRows(body int) int {
	if body == bodyAVX512 {
		return mrA
	}
	return mr
}

// sweep32Rows is the tile height of an f32 sweep body.
func sweep32Rows(body int) int {
	if body == bodyAVX512 {
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
// amd64 routine here needs (hasFMAKernel), body the sweep level that both
// tiers run.
// XCR0 must show the OS saves the registers a body uses, or the body's
// instructions fault or lose state on a context switch. A caller without
// leaf 7 passes ebx7 = 0; one without OSXSAVE passes xcr0 = 0.
func decodeCPU(ecx1, ebx7, xcr0 uint32) (fma bool, body int) {
	fma = ecx1&(fmaBit|osxsaveBit|avxBit) == fmaBit|osxsaveBit|avxBit &&
		xcr0&xcr0YMM == xcr0YMM && ebx7&avx2Bit != 0
	switch {
	case !fma:
		return false, bodyGo
	case ebx7&(avx512fBit|avx512dqBit) == avx512fBit|avx512dqBit && xcr0&xcr0ZMM == xcr0ZMM:
		return true, bodyAVX512
	}
	return true, bodyAVX2
}

// sweep computes one tile row of a product's (kc, nc) block into d (see
// sweepGo) in the body chosen at init, for either tier. Into a float64 d —
// the f64 tier and the mixed path — the whole row is one assembly call
// whose accumulators stay in registers across the k-block and land in d
// in the block's mode, panel after panel (AVX2: f64 4×8 and f32 6×16
// tiles) or panel pair after panel pair (AVX-512: 8×16 and 8×32). The
// pure-f32 instantiation (float32 d, the tests' reference) computes each
// tile with the same body and lands it with the portable store, so the
// two paths keep the same partial sums.
//
// The assembly bodies round once per multiply-add, so their results can
// differ from the portable loop in the last ulp; a tier's bodies equal
// each other bit for bit. Callers comparing against a scalar reference
// must use a tolerance (see the GEMM property tests). Within one process
// the dispatch is constant, so GEMM stays bit-for-bit deterministic across
// runs and across worker counts.
func sweep[P, T elem](d []T, a *[mrA][]P, bpack []P, ld, kcb, ncb, rows, mode int, bias []float64) {
	if d64, ok := any(d).([]float64); ok && sweepBody != bodyGo {
		sweepAsm(sweepBody, d64, a, bpack, ld, kcb, ncb, rows, mode, bias)
		return
	}
	sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias, sweepBody != bodyGo)
}

// sweepAsm runs the assembly sweep body of P's tier into the float64 d,
// after checking every bound the assembly relies on. kcb ≥ 1, 1 ≤ rows ≤
// the body's tile height (sweepRows, sweep32Rows).
func sweepAsm[P elem](body int, d []float64, a *[mrA][]P, bpack []P, ld, kcb, ncb, rows, mode int, bias []float64) {
	w, _ := tier[P]()
	_ = d[(rows-1)*ld+ncb-1]
	_ = bpack[roundUp(ncb, w)*kcb-1]
	for _, ar := range a {
		_ = ar[kcb-1]
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
	switch a := any(a).(type) {
	case *[mrA][]float32:
		b := &any(bpack).([]float32)[0]
		if body == bodyAVX512 {
			avx512Sweep8x32(&d[0], a, b, bp, ld, kcb, ncb, rows, mode)
		} else {
			fmaSweep6x16(&d[0], a, b, bp, ld, kcb, ncb, rows, mode)
		}
	case *[mrA][]float64:
		b := &any(bpack).([]float64)[0]
		if body == bodyAVX512 {
			avx512Sweep8x16(&d[0], a, b, bp, ld, kcb, ncb, rows, mode)
			return
		}
		// For fmaSweep4x8 a missing row of a remainder tile aliases the
		// last valid one: its A row (set by the caller), its offset in d
		// and its row bias.
		var o [mr]int
		for r := range o {
			o[r] = min(r, rows-1) * ld
		}
		var rb [mr]float64
		if mode == storeRowBias {
			for r := range rb {
				rb[r] = bias[min(r, rows-1)]
			}
			bp = &rb[0]
		}
		fmaSweep4x8(&d[0], &a[0][0], &a[1][0], &a[2][0], &a[3][0], b, bp, o[1], o[2], o[3], kcb, ncb, mode)
	}
}

// fmaSweep4x8 lands the 4×8 tiles of one tile row against every packed
// panel in d, by mode. Implemented in kernel_amd64.s.
//
//go:noescape
func fmaSweep4x8(d, a0, a1, a2, a3, bp, bias *float64, o1, o2, o3, kc, nc, mode int)

// avx512Sweep8x16 is fmaSweep4x8 with AVX-512: 8×16 tiles, two panels at
// a time, rows rows stored. Implemented in kernel_amd64.s.
//
//go:noescape
func avx512Sweep8x16(d *float64, a *[mrA][]float64, bp, bias *float64, ld, kc, nc, rows, mode int)

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

// fusedTile32 computes the tileRows32×nr32 tile of one panel into c with
// the assembly body, for the pure-f32 instantiation: set mode into a
// float64 tile (widening is exact), narrowed back.
func fusedTile32(c *[mrA32 * nr32]float32, a *[mrA32][]float32, bp []float32, kcb int) {
	var t [mrA32 * nr32]float64
	sweepAsm(sweepBody, t[:], a, bp, nr32, kcb, nr32, tileRows32, storeSet, nil)
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

// packPanel packs kcb rows of w values, ld apart in src, into the panel d
// of P's width (see packPanelGo and packPanel32Go, which narrows): a whole
// panel of a float64 source in one AVX2 call.
func packPanel[P, T elem](d []P, src []T, ld, kcb, w int) {
	pw, _ := tier[P]()
	if s, ok := any(src).([]float64); ok && hasFMAKernel && w == pw && kcb > 0 {
		_ = s[(kcb-1)*ld+pw-1]
		_ = d[kcb*pw-1]
		switch d := any(d).(type) {
		case []float64:
			avxPackRows(&d[0], &s[0], ld, kcb)
		case []float32:
			avxPackRows32(&d[0], &s[0], ld, kcb)
		}
		return
	}
	packGo(d, src, ld, kcb, w, false)
}

// packPanelT packs w columns of kcb values, each contiguous and ld apart
// in src, into the panel d of P's width (see packPanelTGo and
// packPanelT32Go): for a whole panel of a float64 source, 4×4 transposes
// over the whole k steps in fours, the portable loop for the rest.
func packPanelT[P, T elem](d []P, src []T, ld, kcb, w int) {
	pw, _ := tier[P]()
	if s, ok := any(src).([]float64); ok && hasFMAKernel && w == pw {
		if k4 := kcb &^ 3; k4 > 0 {
			_ = s[(pw-1)*ld+k4-1]
			_ = d[k4*pw-1]
			switch d := any(d).(type) {
			case []float64:
				avxPackCols(&d[0], &s[0], ld, k4)
			case []float32:
				avxPackCols32(&d[0], &s[0], ld, k4)
			}
			d, src, kcb = d[k4*pw:], src[k4:], kcb-k4
		}
	}
	packGo(d, src, ld, kcb, w, true)
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
