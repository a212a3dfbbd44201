package tensor

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// TestRowWorkers pins the worker math: small volumes and thin matrices stay
// serial, large ones clamp to min(GOMAXPROCS, rows).
func TestRowWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(prev)

	cases := []struct {
		name         string
		rows, volume int
		want         int
	}{
		{"below threshold", 256, parallelThreshold - 1, 1},
		{"at threshold", 256, parallelThreshold, 16},
		{"thin matrix stays serial", 2*mr - 1, 1 << 30, 1},
		{"clamped to rows", 9, 1 << 30, 9},
		{"big square", 4096, 1 << 30, 16},
	}
	for _, c := range cases {
		if got := rowWorkers(c.rows, c.volume); got != c.want {
			t.Errorf("%s: rowWorkers(%d, %d) = %d, want %d",
				c.name, c.rows, c.volume, got, c.want)
		}
	}

	runtime.GOMAXPROCS(1)
	if got := rowWorkers(4096, 1<<30); got != 1 {
		t.Errorf("GOMAXPROCS=1: rowWorkers = %d, want 1", got)
	}
}

// recordRows is a row task that records the chunks it is handed.
type recordRows struct {
	fanout
	mu     sync.Mutex
	chunks [][2]int
}

func (t *recordRows) rows(lo, hi int) {
	t.mu.Lock()
	t.chunks = append(t.chunks, [2]int{lo, hi})
	t.mu.Unlock()
}

// TestParallelRowsPartition checks that the chunks fanOutRows hands out
// tile [0, rows) exactly once, that every interior boundary is aligned to
// the tile height asked for — the portable heights mr and mr32 and the
// running bodies' tileRows and tileRows32, which the GEMM fan-outs use —
// so no tile straddles two workers, and that the chunk count never
// exceeds the worker cap.
func TestParallelRowsPartition(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	for _, align := range []int{mr, tileRows, mr32, tileRows32} {
		for _, rows := range []int{16, 70, 100, 257} {
			task := new(recordRows)
			fanOutRows(task, rows, 1<<30, align)
			chunks := task.chunks
			sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
			next := 0
			for _, c := range chunks {
				if c[0] != next {
					t.Fatalf("align=%d rows=%d: chunk starts at %d, want %d (chunks %v)",
						align, rows, c[0], next, chunks)
				}
				if c[1] != rows && (c[1]-c[0])%align != 0 {
					t.Fatalf("align=%d rows=%d: interior chunk %v not %d-row aligned", align, rows, c, align)
				}
				next = c[1]
			}
			if next != rows {
				t.Fatalf("align=%d rows=%d: coverage ends at %d", align, rows, next)
			}
			if len(chunks) > 8 {
				t.Fatalf("align=%d rows=%d: %d chunks exceed the worker cap 8", align, rows, len(chunks))
			}
		}
	}
}

// TestGEMMMatchesNaiveEdgeShapes drives the blocked kernel through shapes
// that stress every edge: partial mr/nr tiles, single rows and columns, and
// sizes straddling the kc/nc cache blocks and the parallel threshold. FMA
// fuses the multiply-add rounding step, so comparison uses a tolerance.
func TestGEMMMatchesNaiveEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33, 63, 65, 127, 129}
	for trial := 0; trial < 60; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		a, b := New(m, k), New(k, n)
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
			t.Fatalf("MatMul(%dx%d, %dx%d) diverges from naive reference", m, k, k, n)
		}
	}
	// Straddle the cache blocks (kcBlock=256, ncBlock=512).
	for _, s := range [][3]int{{4, 300, 520}, {70, 257, 64}, {130, 512, 9}} {
		a, b := New(s[0], s[1]), New(s[1], s[2])
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-8) {
			t.Fatalf("MatMul%v diverges from naive reference", s)
		}
	}
}

// TestMatMulTransBBiasIntoMatchesNaive checks the fused-bias epilogue the
// dense and conv layers use: dst = a·bᵀ + bias, row-broadcast.
func TestMatMulTransBBiasIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range [][3]int{{1, 1, 1}, {5, 9, 3}, {33, 65, 17}, {70, 70, 70}} {
		m, k, n := s[0], s[1], s[2]
		a, bt := New(m, k), New(n, k)
		a.RandNormal(rng, 0, 1)
		bt.RandNormal(rng, 0, 1)
		bias := make([]float64, n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		want := naiveMatMul(a, Transpose(bt))
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want.Set(want.At(i, j)+bias[j], i, j)
			}
		}
		dst := GetTensor(m, n)
		MatMulTransBBiasInto(dst, a, bt, bias)
		if !Equal(dst, want, 1e-9) {
			t.Fatalf("MatMulTransBBiasInto(%dx%d · (%dx%d)ᵀ) diverges from reference",
				m, k, n, k)
		}
		PutTensor(dst)
	}
}

// TestGEMMDeterministicAcrossWorkers pins the f64 tier's determinism
// contract at the conv layers' row counts (10 and 14 channels, 45 and 90
// taps, none a multiple of every tile height): a plain product with a
// column bias over two k-blocks and two n-blocks, and a convolution's
// weight gradient, whose fan-out splits the rows of dWᵀ (the taps) and
// chains each element over the images. At 2 and 3 workers both must be
// bit-identical to the serial run.
func TestGEMMDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, m := range []int{10, 14, 45, 90} {
		a, b := randMat(rng, m, 300), randMat(rng, 300, 600)
		bias := randMat(rng, 1, 600).Data
		gemm := func() *Tensor { return MatMulBiasInto(New(m, 600), a, b, bias) }

		// m taps: m input channels under a 1×1 kernel, or m/9 under 3×3.
		g := ConvGeom{InC: m, InH: 32, InW: 32, KH: 1, KW: 1, Stride: 1}
		if m%9 == 0 {
			g.InC, g.KH, g.KW, g.Pad = m/9, 3, 3, 1
		}
		const n, outC = 8, 10
		x := randMat(rng, n, g.InC*g.InH*g.InW).Reshape(n, g.InC, g.InH, g.InW)
		grad := randMat(rng, n, outC*g.OutH()*g.OutW()).Reshape(n, outC, g.OutH(), g.OutW())
		weightGrad := func() *Tensor {
			dw := New(outC, g.taps())
			ConvParamGradsInto(dw, make([]float64, outC), x, grad, g)
			return dw
		}

		runtime.GOMAXPROCS(1)
		refGEMM, refDW := gemm(), weightGrad()
		for _, workers := range []int{2, 3} {
			runtime.GOMAXPROCS(workers)
			if i := sameBits(gemm(), refGEMM); i >= 0 {
				t.Fatalf("m=%d GOMAXPROCS=%d: GEMM element %d differs in bits from the serial run", m, workers, i)
			}
			if i := sameBits(weightGrad(), refDW); i >= 0 {
				t.Fatalf("taps=%d GOMAXPROCS=%d: weight-gradient element %d differs in bits from the serial run", m, workers, i)
			}
		}
	}
}
