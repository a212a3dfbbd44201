package tensor

import (
	"math/rand"
	"testing"
)

func benchMats(n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(n, n), New(n, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	return a, b
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchMats(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := benchMats(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkMatMul256F32 is BenchmarkMatMul256 under the F32 policy: the
// same f64 tensors, with the GEMM running the mixed narrow/compute/widen
// path a -precision f32 training run takes.
func BenchmarkMatMul256F32(b *testing.B) {
	x, y := benchMats(256)
	SetPrecision(F32)
	defer SetPrecision(F64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulTransB128(b *testing.B) {
	x, y := benchMats(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := New(32, 3, 12, 12)
	x.RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2Col(x, g)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := New(32, 3, 12, 12)
	x.RandNormal(rng, 0, 1)
	cols := Im2Col(x, g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Col2Im(cols, 32, g)
	}
}

// BenchmarkConvLowering measures the full conv-layer compute pipeline
// (im2col, forward GEMM with fused bias, weight-gradient GEMM, input-
// gradient GEMM, col2im) on pooled buffers — the path internal/nn's Conv2D
// runs per minibatch. Steady state allocates nothing: every buffer cycles
// through the scratch arena.
func BenchmarkConvLowering(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n, outC = 16, 16
	k := g.InC * g.KH * g.KW
	rows := n * g.OutH() * g.OutW()
	x := New(n, g.InC, g.InH, g.InW)
	x.RandNormal(rng, 0, 1)
	w := New(outC, k)
	w.RandNormal(rng, 0, 1)
	bias := make([]float64, outC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cols := GetTensor(rows, k)
		Im2ColInto(cols, x, g)
		prod := GetTensor(rows, outC)
		MatMulTransBBiasInto(prod, cols, w, bias)
		dW := GetTensor(outC, k)
		MatMulTransAInto(dW, prod, cols)
		PutTensor(dW)
		MatMulInto(cols, prod, w) // reuse cols as grad-columns dst
		dx := GetTensor(n, g.InC, g.InH, g.InW)
		Col2ImInto(dx, cols, n, g)
		PutTensor(dx)
		PutTensor(prod)
		PutTensor(cols)
	}
}
