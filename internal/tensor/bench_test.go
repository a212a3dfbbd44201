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

// benchConvGeom is the cip_vgg_f64 10→10 convolution over 32×32 images,
// the model's widest im2col and col2im.
var benchConvGeom = ConvGeom{InC: 10, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := benchConvGeom
	x := New(32, g.InC, g.InH, g.InW)
	x.RandNormal(rng, 0, 1)
	cols := New(32, g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, x, g)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := benchConvGeom
	x := New(32, g.InC, g.InH, g.InW)
	x.RandNormal(rng, 0, 1)
	cols := Im2Col(x, g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Col2ImInto(x, cols, 32, g)
	}
}

// BenchmarkPackF32 packs a 512×600 weight into f32 panels, as a dense
// layer's PackedB is packed once per step under the F32 policy: plain
// (the input gradient's g·W reads W as k×n) and transposed (the forward
// x·Wᵀ).
func BenchmarkPackF32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	w := randMat(rng, 512, 600)
	SetPrecision(F32)
	defer SetPrecision(F64)
	for _, transB := range []bool{false, true} {
		name := "plain"
		if transB {
			name = "transB"
		}
		b.Run(name, func(b *testing.B) {
			var p PackedB
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Pack(w, transB)
			}
		})
	}
}

// BenchmarkWeightGradF32 is a dense layer's weight gradient on the mixed
// path: dW (512×600) += gᵀ·x over a batch of 32, g 32×512 and x 32×600.
// It stages gᵀ narrowed, packs x and lands every tile by accumulation.
func BenchmarkWeightGradF32(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, x, dw := randMat(rng, 32, 512), randMat(rng, 32, 600), New(512, 600)
	SetPrecision(F32)
	defer SetPrecision(F64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransAAddInto(dw, g, x)
	}
}

// BenchmarkGEMMConvF64 runs the nine per-image products of cip_vgg_f64's
// three convolutions over 32×32 images (10, 10 and 14 output channels;
// 3, 10 and 10 input channels, the third at 16×16) as the layers run
// them: inner products, serial, the row remainder on the tile routine.
// The forward is y_b [OutC, S] = W · cols_b + bias per row; the input
// gradient dcols_b [K, S] = Wᵀ · g_b, whose k is OutC, so each tile's
// store weighs as much as its multiply-adds; the weight gradient chains
// one worker's rows of dWᵀ [K/2, OutC] through cols_b · g_bᵀ at two
// workers (conv1's 27 taps stay on one). B is packed once, outside the
// timed loop, so the products time the sweep; the per-call pack is in
// internal/nn's BenchmarkConvLayer.
func BenchmarkGEMMConvF64(b *testing.B) {
	cases := []struct {
		name    string
		m, k, n int
		s       gemmShape
	}{
		{name: "fwd_conv1", m: 10, k: 27, n: 1024, s: gemmShape{rowBias: true}},
		{name: "fwd_conv2", m: 10, k: 90, n: 1024, s: gemmShape{rowBias: true}},
		{name: "fwd_conv3", m: 14, k: 90, n: 256, s: gemmShape{rowBias: true}},
		{name: "dX_conv1", m: 27, k: 10, n: 1024},
		{name: "dX_conv2", m: 90, k: 10, n: 1024},
		{name: "dX_conv3", m: 90, k: 14, n: 256},
		{name: "dW_conv1", m: 27, k: 1024, n: 10, s: gemmShape{transB: true, chain: true}},
		{name: "dW_conv2", m: 45, k: 1024, n: 10, s: gemmShape{transB: true, chain: true}},
		{name: "dW_conv3", m: 45, k: 256, n: 14, s: gemmShape{transB: true, chain: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			a, dst := randMat(rng, c.m, c.k), New(c.m, c.n)
			op := randMat(rng, c.k, c.n)
			if c.s.transB {
				op = randMat(rng, c.n, c.k)
			}
			var p PackedB
			p.Pack(op, c.s.transB)
			s := c.s
			s.m, s.k, s.n, s.pre, s.inner = c.m, c.k, c.n, &p, true
			if s.rowBias {
				s.bias = randMat(rng, 1, c.m).Data
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemm(dst.Data, a.Data, nil, s)
			}
			b.ReportMetric(2*float64(c.m*c.k*c.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
