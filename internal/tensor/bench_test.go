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

// BenchmarkGEMMInputGrad is one image's input-gradient product in the
// cip_vgg_f64 10→10 convolution over 32×32 images, as the layer runs it:
// dcols_b [90, 1024] = Wᵀ [90, 10] · g_b [10, 1024], an inner product
// (serial, its two-row remainder on the tile routine). k is 10, so each
// tile's store and dispatch weigh as much as its multiply-adds.
func BenchmarkGEMMInputGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	wT, g, dcols := randMat(rng, 90, 10), randMat(rng, 10, 1024), New(90, 1024)
	s := gemmShape{m: 90, k: 10, n: 1024, inner: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemm(dcols.Data, wT.Data, g.Data, s)
	}
}
