//go:build !amd64 && !arm64

package tensor

// hasFMAKernel reports whether the fused-multiply-add assembly routines
// are in use; only the amd64 build has them.
const hasFMAKernel = false

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
// body, in either tier.
func sweep[P, T elem](d []T, a *[mrA][]P, bpack []P, ld, kcb, ncb, rows, mode int, bias []float64) {
	sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias, false)
}

// fusedTile32 is the portable tile: this build has no fused one, and
// sweep never asks for it.
func fusedTile32(c *[mrA32 * nr32]float32, a *[mrA32][]float32, bp []float32, kcb int) {
	microKernel32(c, a, bp, kcb)
}

// axpyRow32 adds alpha·src into dst (equal lengths) with the portable loop.
func axpyRow32(dst, src []float32, alpha float32) {
	axpyRow32Go(dst, src, alpha)
}
