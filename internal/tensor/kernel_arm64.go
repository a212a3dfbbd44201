//go:build arm64

package tensor

import "os"

// Advanced SIMD (NEON) is architecturally mandatory on AArch64 — every
// arm64 CPU Go targets has it, so "feature detection" is a build-time fact
// rather than a CPUID probe. hasNEONKernel exists anyway so the dispatch
// mirrors the amd64 structure and so CIP_NONEON=1 can force the portable
// kernels for A/B correctness and perf comparisons. It is read once at
// init and constant afterwards, keeping kernel dispatch — and therefore
// bit-reproducibility — fixed for the life of the process.
var hasNEONKernel = os.Getenv("CIP_NONEON") == ""

// hasFMAKernel reports whether the amd64 AVX2+FMA micro-kernel is in use;
// never on arm64.
const hasFMAKernel = false

// The float64 path stays portable on arm64 for now: NEON is only 2 lanes
// of float64 per register, so the win over the compiler's scalar FMADD
// code is far smaller than the f32 tier's (ROADMAP item 4 tracks an f64
// NEON kernel as follow-up). The f32 tier — what the precision policy
// selects for training — is where arm64 leaves the pure-Go path.

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

// sweep32 computes one tile row of a product's block with the portable
// panel loop, each tile on the NEON FMLA kernel. Like the amd64 sweeps,
// FMLA fuses the multiply-add rounding step, so results can differ from
// the portable kernel in the last ulp; dispatch is constant per process,
// so GEMM stays bit-for-bit deterministic across runs and worker counts.
func sweep32[T elem](d []T, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []T) {
	sweepTiles32(d, a, bpack, ld, kcb, ncb, rows, mode, bias, hasNEONKernel)
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
	if hasNEONKernel {
		if n4 := len(dst) &^ 3; n4 > 0 {
			neonAxpy32(&dst[0], &src[0], alpha, n4)
			dst, src = dst[n4:], src[n4:]
		}
	}
	axpyRow32Go(dst, src, alpha)
}
