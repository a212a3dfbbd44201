//go:build arm64

package tensor

// hasFMAKernel reports whether the amd64 AVX2+FMA micro-kernel is in use;
// never on arm64.
const hasFMAKernel = false

// Advanced SIMD (NEON) is architecturally mandatory on AArch64 — every
// arm64 CPU Go targets has it, so the f32 tier's NEON routines run
// unconditionally (the portable loops behind them run in the 386 build's
// tests, make portable). The float64 path stays portable on arm64: NEON is only 2
// lanes of float64 per register, so the win over the compiler's scalar
// FMADD code is far smaller than the f32 tier's. The f32 tier — what the
// precision policy selects for training — is where arm64 leaves the
// pure-Go path.

// axpyRow adds alpha·src into dst (equal lengths) with the portable loop.
func axpyRow(dst, src []float64, alpha float64) {
	axpyRowGo(dst, src, alpha)
}

// reluKernel rectifies with the portable loop.
func reluKernel(dst, x []float64) { reluGo(dst, x) }

// reluGateKernel gates gradients with the portable loop.
func reluGateKernel(dst, y, g []float64) { reluGateGo(dst, y, g) }

// tileRows and tileRows32 are the f64 and f32 sweeps' tile heights.
const tileRows, tileRows32 = mr, mr32

// sweep computes one tile row of a product's block with the portable
// panel loop, each f32 tile on the NEON FMLA kernel. Like the amd64
// sweeps, FMLA fuses the multiply-add rounding step, so results can
// differ from the portable kernel in the last ulp; dispatch is constant,
// so GEMM stays bit-for-bit deterministic across runs and worker counts.
func sweep[P, T elem](d []T, a *[mrA][]P, bpack []P, ld, kcb, ncb, rows, mode int, bias []float64) {
	sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias, true)
}

// fusedTile32 computes the mr32×nr32 tile into c (overwriting it) with
// the NEON kernel.
func fusedTile32(c *[mrA32 * nr32]float32, a *[mrA32][]float32, bp []float32, kcb int) {
	neonKernel6x16(&a[0][0], &a[1][0], &a[2][0], &a[3][0], &a[4][0], &a[5][0], &bp[0], &c[0], kcb)
}

// neonKernel6x16 accumulates c[6][16] = Σ_p a{r}[p] * bp[p*16+j] over p in
// [0, kc) with NEON FMLA, overwriting c. Implemented in kernel_arm64.s.
//
//go:noescape
func neonKernel6x16(a0, a1, a2, a3, a4, a5, bp, c *float32, kc int)

// neonAxpy32 computes dst[i] += alpha*src[i] for i in [0, n) with NEON
// FMLA; n must be a positive multiple of 4. Implemented in kernel_arm64.s.
//
//go:noescape
func neonAxpy32(dst, src *float32, alpha float32, n int)

// axpyRow32 adds alpha·src into dst (equal lengths), running the 4-lane
// NEON body and finishing any sub-vector remainder with the portable loop.
func axpyRow32(dst, src []float32, alpha float32) {
	if n4 := len(dst) &^ 3; n4 > 0 {
		neonAxpy32(&dst[0], &src[0], alpha, n4)
		dst, src = dst[n4:], src[n4:]
	}
	axpyRow32Go(dst, src, alpha)
}
