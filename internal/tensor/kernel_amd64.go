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

// microKernel computes the mr×nr tile into c, dispatching to the AVX2+FMA
// assembly kernel when the CPU supports it. It overwrites c, or with acc
// continues each element's multiply-add chain from c's value.
//
// The FMA kernel rounds once per multiply-add, so its results can differ
// from the portable kernel in the last ulp; callers comparing against a
// scalar reference must use a tolerance (see the GEMM property tests).
// Within one process the dispatch is constant, so GEMM stays bit-for-bit
// deterministic across runs and across worker counts.
func microKernel(c *[mr * nr]float64, a0, a1, a2, a3, bp []float64, kcb int, acc bool) {
	if hasFMAKernel && kcb > 0 {
		fmaKernel4x8(&a0[0], &a1[0], &a2[0], &a3[0], &bp[0], &c[0], kcb, acc)
		return
	}
	microKernelGo(c, a0, a1, a2, a3, bp, kcb, acc)
}

// fmaKernel4x8 accumulates c[4][8] = Σ_p a{r}[p] * bp[p*8+j] over p in
// [0, kc) with AVX2 FMA, starting from zero (overwriting c) or, with acc,
// from c. Implemented in kernel_amd64.s.
//
//go:noescape
func fmaKernel4x8(a0, a1, a2, a3, bp, c *float64, kc int, acc bool)

// fmaAxpy computes dst[i] += alpha*src[i] for i in [0, n) with AVX2 FMA.
// Implemented in kernel_amd64.s.
//
//go:noescape
func fmaAxpy(dst, src *float64, alpha float64, n int)

// axpyRow adds alpha·src into dst (equal lengths), dispatching to the FMA
// kernel when the CPU supports it. Like microKernel, the FMA path rounds
// once per multiply-add, so it can differ from the portable loop in the
// last ulp.
func axpyRow(dst, src []float64, alpha float64) {
	if hasFMAKernel && len(dst) > 0 {
		fmaAxpy(&dst[0], &src[0], alpha, len(dst))
		return
	}
	axpyRowGo(dst, src, alpha)
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
// CPU supports it. Same rounding caveat as microKernel: FMA fuses the
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
