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

// tileRows32 is the f32 sweep's tile height.
const tileRows32 = mr32

// sweep32 computes one tile row of a product's block with the portable
// body.
func sweep32[T elem](d []T, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []T) {
	sweep32Go(d, a, bpack, ld, kcb, ncb, rows, mode, bias)
}

// fusedTile32 is the portable tile: this build has no fused one, and
// sweep32 never asks for it.
func fusedTile32(c *[mrA32 * nr32]float32, a *[mrA32][]float32, bp []float32, kcb int) {
	microKernel32(c, a, bp, kcb)
}

// axpyRow32 adds alpha·src into dst (equal lengths) with the portable loop.
func axpyRow32(dst, src []float32, alpha float32) {
	axpyRow32Go(dst, src, alpha)
}
