package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestHelperTeamUnderConcurrentCallers: more callers than helpers issue
// parallel GEMMs (both precisions) and im2col at once. Under the F64
// policy each caller interleaves the three products of two concurrently
// training clients: an f64 product, a product against a B packed under
// F32 (the mixed driver, beside the f64 one), and a convolution's weight
// gradient (chain mode). Nothing deadlocks, every result is bit-identical
// to the serial one, and the team stays within GOMAXPROCS-1 long-lived
// helpers however many products run.
func TestHelperTeamUnderConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := New(130, 300), New(300, 70) // two k-blocks, above the parallel threshold
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	img := New(8, 3, 16, 16)
	img.RandNormal(rng, 0, 1)
	g := ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const outC = 10
	grad := New(8, outC, g.OutH(), g.OutW())
	grad.RandNormal(rng, 0, 1)
	weightGrad := func() *Tensor {
		dw := New(outC, g.taps())
		ConvParamGradsInto(dw, make([]float64, outC), img, grad, g)
		return dw
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want64 := MatMul(a, b)
	SetPrecision(F32)
	want32 := MatMul(a, b)
	var packed PackedB
	packed.Pack(b, false)
	SetPrecision(F64)
	wantPacked := MatMulPackedInto(New(130, 70), a, &packed, nil)
	wantCols := Im2Col(img, g)
	wantDW := weightGrad()

	runtime.GOMAXPROCS(4)
	before := teamSize.Load() // earlier tests may have run at a higher GOMAXPROCS
	if rowWorkers(a.Shape[0], 130*300*70) < 2 {
		t.Fatal("test product is not large enough to fan out")
	}
	const callers = 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if sameBits(MatMul(a, b), want64) >= 0 {
					t.Error("parallel f64 product differs from the serial one")
					return
				}
				if sameBits(MatMulPackedInto(New(130, 70), a, &packed, nil), wantPacked) >= 0 {
					t.Error("parallel product against an F32-packed B differs from the serial one")
					return
				}
				if sameBits(weightGrad(), wantDW) >= 0 {
					t.Error("parallel conv weight gradient differs from the serial one")
					return
				}
				if !Equal(Im2Col(img, g), wantCols, 0) {
					t.Error("parallel im2col differs from the serial one")
					return
				}
			}
		}()
	}
	wg.Wait()

	SetPrecision(F32)
	defer SetPrecision(F64)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if sameBits(MatMul(a, b), want32) >= 0 {
					t.Error("parallel mixed-precision product differs from the serial one")
					return
				}
			}
		}()
	}
	wg.Wait()

	if n := teamSize.Load(); n < 1 || n > max(before, 3) {
		t.Fatalf("helper team has %d members after %d callers at GOMAXPROCS 4 (was %d), want at most 3",
			n, callers, before)
	}
}

// TestSerialKernelsNeverStartHelpers: below the parallel threshold (and at
// GOMAXPROCS 1) a product must not grow the team — processes that never run
// a parallel kernel never have one.
func TestSerialKernelsNeverStartHelpers(t *testing.T) {
	before := teamSize.Load()
	a, b := New(16, 16), New(16, 16)
	MatMul(a, b)
	prev := runtime.GOMAXPROCS(1)
	big := New(256, 256)
	MatMul(big, big)
	runtime.GOMAXPROCS(prev)
	if after := teamSize.Load(); after != before {
		t.Fatalf("serial products grew the helper team %d -> %d", before, after)
	}
}
