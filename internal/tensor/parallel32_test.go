package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sameBits reports the first element where got and want differ in bits,
// or -1 when they are bit-identical.
func sameBits(got, want *Tensor) int {
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

// TestMatMul32DeterministicAcrossWorkers pins the f32 tier's determinism
// contract on the dense layer's forward product (a·bᵀ + bias, the
// transposed pack path and the fused epilogue): the blocked GEMM
// partitions rows but never splits a k-sum across workers, so the product
// must be BIT-identical at any GOMAXPROCS.
func TestMatMul32DeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Big enough to clear parallelThreshold and span several mr-chunks.
	m, k, n := 96, 310, 530
	a, bt := randMat(rng, m, k), randMat(rng, n, k)
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}

	SetPrecision(F32)
	defer SetPrecision(F64)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ref := MatMulTransBBiasInto(New(m, n), a, bt, bias)

	for _, workers := range []int{2, 3, 5, 8} {
		runtime.GOMAXPROCS(workers)
		got := MatMulTransBBiasInto(New(m, n), a, bt, bias)
		if i := sameBits(got, ref); i >= 0 {
			t.Fatalf("GOMAXPROCS=%d: element %d differs in bits from the serial run", workers, i)
		}
	}
}

// TestMixedGEMMDeterministicAcrossWorkers runs the same sweep through the
// f64 entry point under the F32 policy — the mixed narrow/compute/widen
// pipeline must also be bit-reproducible at any worker count.
func TestMixedGEMMDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, k, n := 96, 300, 520
	a, b := New(m, k), New(k, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)

	SetPrecision(F32)
	defer SetPrecision(F64)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ref := MatMul(a, b)

	for _, workers := range []int{2, 3, 5, 8} {
		runtime.GOMAXPROCS(workers)
		got := MatMul(a, b)
		if i := sameBits(got, ref); i >= 0 {
			t.Fatalf("GOMAXPROCS=%d: mixed-precision element %d differs in bits", workers, i)
		}
	}
}

// TestMatMul32ParallelMatchesSerialEdgeChunks checks the f32 driver's row
// partitioning at shapes where m barely exceeds one mr32-aligned chunk per
// worker, the spot where off-by-one partitioning bugs live.
func TestMatMul32ParallelMatchesSerialEdgeChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	SetPrecision(F32)
	defer SetPrecision(F64)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	for _, m := range []int{5, 8, 9, 13} {
		k, n := 128, 600 // volume past parallelThreshold even for small m
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		runtime.GOMAXPROCS(1)
		ref := MatMul(a, b)
		runtime.GOMAXPROCS(4)
		got := MatMul(a, b)
		if i := sameBits(got, ref); i >= 0 {
			t.Fatalf("m=%d: parallel run differs from serial at element %d", m, i)
		}
	}
}
