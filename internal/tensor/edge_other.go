//go:build !amd64

package tensor

// The GEMM's edges and the momentum step run the portable loops on every
// build without the AVX2 routines (edge_amd64.s).

func packPanel[P, T elem](d []P, src []T, ld, kcb, w int)  { packGo(d, src, ld, kcb, w, false) }
func packPanelT[P, T elem](d []P, src []T, ld, kcb, w int) { packGo(d, src, ld, kcb, w, true) }

func addRows(dst, src []float64, ldd, lds, run, rows int) { addRowsGo(dst, src, ldd, lds, run, rows) }

func transposeNarrow(dst []float32, a []float64, k, m int) { transposeNarrowGo(dst, a, k, m, 0, 0) }

func momentumStep(w, v, g []float64, mu, alpha float64) { momentumStepGo(w, v, g, mu, alpha) }
