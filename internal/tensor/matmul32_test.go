package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	t.RandNormal(rng, 0, 1)
	return t
}

// narrowed returns a copy of t rounded through float32, so an f64
// reference multiplies exactly the operands the f32 tier computes on.
func narrowed(t *Tensor) *Tensor {
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = float64(float32(v))
	}
	return out
}

// underF32 runs fn with the F32 precision policy installed.
func underF32(fn func()) {
	SetPrecision(F32)
	defer SetPrecision(F64)
	fn()
}

// pureGEMM32 runs the driver's pure-f32 instantiation on a·b: f32
// operands in, f32 product out, no widening anywhere — the pure-f32
// reference the mixed path is held to.
func pureGEMM32(a, b *Tensor) []float32 {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	a32, b32 := make([]float32, len(a.Data)), make([]float32, len(b.Data))
	NarrowSlice(a32, a.Data)
	NarrowSlice(b32, b.Data)
	out := make([]float32, m*n)
	gemmBlocked(out, a32, b32, gemmShape{m: m, k: k, n: n})
	return out
}

// TestMatMul32MatchesNaiveEdgeShapes drives the f32 blocked driver —
// through the mixed path (MatMul under the F32 policy) and through its
// pure-f32 instantiation — over shapes that stress every edge: partial
// mr32/nr32 tiles, single rows and columns, and sizes straddling the kc/nc
// cache blocks and the parallel threshold. FMA/FMLA fuse the multiply-add
// rounding and the blocked kernel sums k in panel order, so the comparison
// tolerance scales with k at float32 epsilon.
func TestMatMul32MatchesNaiveEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 63, 65, 127, 129}
	shapes := [][3]int{{4, 300, 520}, {70, 257, 64}, {130, 512, 9}}
	for trial := 0; trial < 60; trial++ {
		shapes = append(shapes, [3]int{
			dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))]})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		want := naiveMatMul(narrowed(a), narrowed(b))
		tol := 1e-4 * math.Sqrt(float64(k))
		var mixed *Tensor
		underF32(func() { mixed = MatMul(a, b) })
		if !Equal(mixed, want, tol) {
			t.Fatalf("mixed MatMul(%dx%d, %dx%d) diverges from naive reference", m, k, k, n)
		}
		pure := New(m, n)
		WidenSlice(pure.Data, pureGEMM32(a, b))
		if !Equal(pure, want, tol) {
			t.Fatalf("pure-f32 driver (%dx%d, %dx%d) diverges from naive reference", m, k, k, n)
		}
	}
}

// TestMatMulTransB32MatchesNaive checks the f32 transposed-B pack path.
func TestMatMulTransB32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range [][3]int{{1, 1, 1}, {5, 9, 3}, {33, 65, 17}, {70, 70, 70}} {
		m, k, n := s[0], s[1], s[2]
		a, bt := randMat(rng, m, k), randMat(rng, n, k)
		var got *Tensor
		underF32(func() { got = MatMulTransB(a, bt) })
		want := naiveMatMul(narrowed(a), Transpose(narrowed(bt)))
		if !Equal(got, want, 1e-4*math.Sqrt(float64(k))) {
			t.Fatalf("F32-policy MatMulTransB(%dx%d · (%dx%d)ᵀ) diverges from reference", m, k, n, k)
		}
	}
}

// TestMatMulBias32IntoEpilogue checks the f32 driver's fused-bias epilogue:
// the bias is added in float64 as the first k-block's partials widen.
func TestMatMulBias32IntoEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, k, n := 9, 33, 21
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	want := naiveMatMul(narrowed(a), narrowed(b))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want.Data[i*n+j] += bias[j]
		}
	}
	dst := New(m, n)
	underF32(func() { MatMulBiasInto(dst, a, b, bias) })
	if !Equal(dst, want, 1e-4*math.Sqrt(float64(k))) {
		t.Fatal("F32-policy MatMulBiasInto diverges from naive reference + bias")
	}
}

// TestMixedGEMMWidensPureF32 pins the mixed path's contract: for a product
// with a single k-block (k ≤ kcBlock) and no bias, running the f64 entry
// point under the F32 policy must produce EXACTLY the widened pure-f32
// product — the narrow-compute-widen round trip introduces no extra
// arithmetic.
func TestMixedGEMMWidensPureF32(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range [][3]int{{5, 7, 3}, {64, 64, 64}, {33, 256, 70}, {128, 100, 520}} {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)

		var mixed *Tensor
		underF32(func() { mixed = MatMul(a, b) })

		pure := pureGEMM32(a, b)
		for i := range mixed.Data {
			if mixed.Data[i] != float64(pure[i]) {
				t.Fatalf("(%d,%d,%d): mixed[%d] = %v, widened pure f32 = %v",
					m, k, n, i, mixed.Data[i], float64(pure[i]))
			}
		}
	}
}

// TestMixedGEMMAccumulatesF64AcrossBlocks checks the other half of the
// contract: with k spanning multiple kcBlocks the mixed path sums its
// f32 block partials in float64, so it is generally CLOSER to the f64
// result than an end-to-end f32 accumulation — and must stay within a
// float32-scale tolerance of the f64 product.
func TestMixedGEMMAccumulatesF64AcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 16, 3*kcBlock+17, 24
	a, b := New(m, k), New(k, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)

	want := MatMul(a, b)
	SetPrecision(F32)
	mixed := MatMul(a, b)
	SetPrecision(F64)

	tol := 1e-4 * math.Sqrt(float64(k))
	if !Equal(mixed, want, tol) {
		t.Fatalf("mixed-precision GEMM drifts more than %g from the f64 product", tol)
	}
}

// TestMixedTransADirect drives the rank-1 aᵀ·b path (m ≤ transADirectMaxM)
// under the F32 policy against the f64 reference.
func TestMixedTransADirect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k, m, n := 500, 16, 72 // m ≤ transADirectMaxM forces the direct path
	a, b := New(k, m), New(k, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	// Sprinkle exact zeros so the skip-zero-lane branch runs.
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}

	want := MatMulTransA(a, b)
	SetPrecision(F32)
	got := MatMulTransA(a, b)
	SetPrecision(F64)

	if !Equal(got, want, 1e-3*math.Sqrt(float64(k))) {
		t.Fatal("F32-policy transADirect diverges from the f64 rank-1 product")
	}
}

// TestPrecisionParse pins the CLI spellings.
func TestPrecisionParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"f32", F32, true}, {"float32", F32, true},
		{"f64", F64, true}, {"float64", F64, true}, {"", F64, true},
		{"f16", F64, false}, {"double", F64, false},
	} {
		got, err := ParsePrecision(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if F32.String() != "f32" || F64.String() != "f64" {
		t.Error("Precision.String spellings drifted from the CLI names")
	}
}

// TestAxpy32Kernel checks the f32 axpy behind transADirect32 against the
// scalar loop across vector-body and remainder lengths.
func TestAxpy32Kernel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{1, 3, 4, 5, 16, 17, 100} {
		a, b := make([]float32, size), make([]float32, size)
		for i := range a {
			a[i], b[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		want := make([]float32, size)
		const alpha = float32(0.37)
		for i := range want {
			want[i] = a[i] + alpha*b[i]
		}
		axpyRow32(a, b, alpha)
		for i := range want {
			if math.Abs(float64(a[i])-float64(want[i])) > 1e-6 {
				t.Fatalf("size %d: axpy[%d] = %v, want %v", size, i, a[i], want[i])
			}
		}
	}
}

// TestPool32RoundTrip checks the f32 arena recycles storage like the f64
// one: a get after a put of the same class reuses the buffer.
func TestPool32RoundTrip(t *testing.T) {
	a := getF32(100)
	data := &a[0]
	putF32(a)
	b := getF32(120) // same power-of-two class (128)
	defer putF32(b)
	if &b[0] != data {
		t.Error("pooled f32 buffer was not reused within its size class")
	}
	if len(b) != 120 {
		t.Errorf("reused buffer has length %d, want 120", len(b))
	}
}

// TestConvertSemantics pins the IEEE-754 narrowing cases the FL boundary
// depends on: NaN stays NaN, ±Inf stays ±Inf, overflow saturates to Inf,
// and sub-f32-range values flush toward zero (finite).
func TestConvertSemantics(t *testing.T) {
	src := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, // overflow → ±Inf
		1e-300, -1e-300, // below f32 subnormals → ±0
		1.5, -2.25, 0, // exactly representable
	}
	dst := make([]float32, len(src))
	NarrowSlice(dst, src)
	back := make([]float64, len(src))
	WidenSlice(back, dst)
	if !math.IsNaN(back[0]) {
		t.Error("NaN did not survive the narrow/widen round trip")
	}
	if !math.IsInf(back[1], 1) || !math.IsInf(back[2], -1) {
		t.Error("±Inf did not survive the round trip")
	}
	if !math.IsInf(back[3], 1) || !math.IsInf(back[4], -1) {
		t.Error("beyond-MaxFloat32 values must overflow to ±Inf")
	}
	if back[5] != 0 || back[6] != 0 {
		t.Error("sub-f32-range values must flush to zero")
	}
	for i := 7; i < 10; i++ {
		if back[i] != src[i] {
			t.Errorf("exactly-representable value %v round-tripped to %v", src[i], back[i])
		}
	}
}
