//go:build !amd64 && !arm64

package tensor

// hasFMAKernel reports whether a fused-multiply-add assembly micro-kernel
// is in use; only the amd64 build has one.
const hasFMAKernel = false

// axpyRow adds alpha·src into dst (equal lengths) with the portable loop.
func axpyRow(dst, src []float64, alpha float64) {
	axpyRowGo(dst, src, alpha)
}

// reluKernel rectifies with the portable loop.
func reluKernel(dst, x []float64) { reluGo(dst, x) }

// reluGateKernel gates gradients with the portable loop.
func reluGateKernel(dst, y, g []float64) { reluGateGo(dst, y, g) }

// microKernel32 computes the mr32×nr32 tile into c (overwriting it) with
// the portable Go kernel.
func microKernel32(c *[mr32 * nr32]float32, a0, a1, a2, a3, a4, a5, bp []float32, kcb int) {
	microKernel32Go(c, a0, a1, a2, a3, a4, a5, bp, kcb)
}

// axpyRow32 adds alpha·src into dst (equal lengths) with the portable loop.
func axpyRow32(dst, src []float32, alpha float32) {
	axpyRow32Go(dst, src, alpha)
}
