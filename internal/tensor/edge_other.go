//go:build !amd64

package tensor

// The GEMM's row sweep and edges and the momentum step run the portable
// loops on every build without the AVX2 routines (kernel_amd64.s,
// edge_amd64.s).

func packPanel(d, src []float64, ld, kcb, w int)  { packPanelGo(d, src, ld, kcb, w) }
func packPanelT(d, src []float64, ld, kcb, w int) { packPanelTGo(d, src, ld, kcb, w) }

func packPanel32[T elem](d []float32, src []T, ld, kcb, w int) {
	packPanel32Go(d, src, ld, kcb, w)
}

func packPanelT32[T elem](d []float32, src []T, ld, kcb, w int) {
	packPanelT32Go(d, src, ld, kcb, w)
}

func sweep(d []float64, a *[mr][]float64, bpack []float64, ld, kcb, ncb, rows, mode int, bias []float64) {
	sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias)
}

func addRows(dst, src []float64, ldd, lds, run, rows int) { addRowsGo(dst, src, ldd, lds, run, rows) }

func transposeNarrow(dst []float32, a []float64, k, m int) { transposeNarrowGo(dst, a, k, m, 0, 0) }

func momentumStep(w, v, g []float64, mu, alpha float64) { momentumStepGo(w, v, g, mu, alpha) }
