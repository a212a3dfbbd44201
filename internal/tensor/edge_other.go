//go:build !amd64

package tensor

// The GEMM's edges and the momentum step run the portable loops on every
// build without the AVX2 routines (edge_amd64.s).

func packPanel(d, src []float64, ld, kcb, w int)  { packPanelGo(d, src, ld, kcb, w) }
func packPanelT(d, src []float64, ld, kcb, w int) { packPanelTGo(d, src, ld, kcb, w) }

func packPanel32[T elem](d []float32, src []T, ld, kcb, w int) {
	packPanel32Go(d, src, ld, kcb, w)
}

func packPanelT32[T elem](d []float32, src []T, ld, kcb, w int) {
	packPanelT32Go(d, src, ld, kcb, w)
}

func storeTile(d []float64, c *[mr * nr]float64, ld, rows, w, mode int, bias []float64) {
	storeTileGo(d, c, ld, rows, w, mode, bias)
}

func storeTile32[T elem](d []T, c *[mr32 * nr32]float32, ld, rows, w, mode int, bias []T) {
	storeTile32Go(d, c, ld, rows, w, mode, bias)
}

func transposeNarrow(dst []float32, a []float64, k, m int) { transposeNarrowGo(dst, a, k, m, 0, 0) }

func momentumStep(w, v, g []float64, mu, alpha float64) { momentumStepGo(w, v, g, mu, alpha) }
