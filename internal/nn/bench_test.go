package nn

import (
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/tensor"
)

func benchNet() (*Sequential, *tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(1))
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g2 := tensor.ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D(rng, g, 8),
		ReLU{},
		NewConv2D(rng, g2, 8),
		ReLU{},
		MaxPool2D{Size: 2},
		Flatten{},
		NewDense(rng, 8*4*4, 10),
	)
	x := tensor.New(32, 3, 8, 8)
	x.RandNormal(rng, 0, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return net, x, labels
}

func BenchmarkForward(b *testing.B) {
	net, x, _ := benchNet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func BenchmarkForwardBackwardStep(b *testing.B) {
	net, x, labels := benchNet()
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrads(net.Params())
		logits, cache := net.Forward(x, true)
		res := SoftmaxCrossEntropy(logits, labels)
		net.Backward(cache, res.Grad)
		opt.Step(net.Params())
	}
}

// BenchmarkConvLayer times one Conv2D layer's train-mode forward, its
// Step II backward (AllGrads) and its Step I backward (InputGrad) on their
// own, at the three cip_vgg_f64 convolutions (batch 32) and at the
// experiment sweep's (3→16 and 16→16 at 8×8 and 12×12, batch 16). The
// cache is the layer's input, so one forward serves every timed backward.
// Input, output gradient and everything a pass allocates live in a
// workspace rewound after every pass, so a warmed pass allocates nothing;
// run with -benchmem to see it, and -cpu 1 for per-core numbers.
func BenchmarkConvLayer(b *testing.B) {
	layers := []struct {
		name        string
		g           tensor.ConvGeom
		outC, batch int
	}{
		{"vgg_3to10_32x32", convGeom3x3(3, 32), 10, 32},
		{"vgg_10to10_32x32", convGeom3x3(10, 32), 10, 32},
		{"vgg_10to14_16x16", convGeom3x3(10, 16), 14, 32},
		{"sweep_3to16_8x8", convGeom3x3(3, 8), 16, 16},
		{"sweep_16to16_8x8", convGeom3x3(16, 8), 16, 16},
		{"sweep_3to16_12x12", convGeom3x3(3, 12), 16, 16},
		{"sweep_16to16_12x12", convGeom3x3(16, 12), 16, 16},
	}
	for _, l := range layers {
		rng := rand.New(rand.NewSource(3))
		c := NewConv2D(rng, l.g, l.outC)
		x := tensor.New(l.batch, l.g.InC, l.g.InH, l.g.InW)
		x.RandNormal(rng, 0, 1)
		grad := tensor.New(l.batch, l.outC, l.g.OutH(), l.g.OutW())
		grad.RandNormal(rng, 0, 1)
		passes := []struct {
			name string
			pass func(wx, wg *tensor.Tensor, cache Cache)
		}{
			{"forward", func(wx, _ *tensor.Tensor, _ Cache) { c.Forward(wx, true) }},
			{"backward_all", func(_, wg *tensor.Tensor, cache Cache) { c.BackwardFor(cache, wg, AllGrads) }},
			{"backward_input", func(_, wg *tensor.Tensor, cache Cache) { c.BackwardFor(cache, wg, InputGrad) }},
		}
		for _, p := range passes {
			b.Run(l.name+"/"+p.name, func(b *testing.B) {
				ws := &tensor.Workspace{}
				var wx, wg *tensor.Tensor
				var cache Cache
				var inputs tensor.Mark
				setup := func() {
					ws.Reset()
					wx, wg = ws.New(x.Shape...), ws.New(grad.Shape...)
					copy(wx.Data, x.Data)
					copy(wg.Data, grad.Data)
					_, cache = c.Forward(wx, true)
					inputs = ws.Mark()
				}
				setup()
				p.pass(wx, wg, cache)
				setup() // the slab now holds a whole pass
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.pass(wx, wg, cache)
					ws.Rewind(inputs)
				}
			})
		}
	}
}

// convGeom3x3 is a 3×3, stride-1, pad-1 convolution over inC square
// size×size planes, the shape of every model convolution.
func convGeom3x3(inC, size int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: inC, InH: size, InW: size, KH: 3, KW: 3, Stride: 1, Pad: 1}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(128, 100)
	logits.RandNormal(rng, 0, 2)
	labels := make([]int, 128)
	for i := range labels {
		labels[i] = rng.Intn(100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropy(logits, labels)
	}
}

func BenchmarkFlattenParams(b *testing.B) {
	net, _, _ := benchNet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FlattenParams(net.Params())
	}
}

// BenchmarkSGDMomentumStep times one momentum-SGD step over parameters
// shaped like the Purchase-50 MLP's (600→512→256→128 and a 50-class head,
// 478,386 values): the optimizer's whole per-batch cost.
func BenchmarkSGDMomentumStep(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(NewDense(rng, 600, 512), ReLU{}, NewDense(rng, 512, 256), ReLU{},
		NewDense(rng, 256, 128), ReLU{}, NewDense(rng, 128, 50))
	params := net.Params()
	for _, p := range params {
		p.Grad.RandNormal(rng, 0, 1e-3)
	}
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	opt.Step(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}

// BenchmarkDenseForwardF32 is the Purchase-50 MLP's first layer forward
// under the F32 policy, x·Wᵀ + b with x [32, 600] and W [512, 600]: the
// mixed-path GEMM [32, 600]·[600, 512] with the bias in its epilogue, on
// weights packed once (PackWeights) as a training step holds them, into a
// preallocated output.
func BenchmarkDenseForwardF32(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(rng, 600, 512)
	x, out := tensor.New(32, 600), tensor.New(32, 512)
	x.RandNormal(rng, 0, 1)
	tensor.SetPrecision(tensor.F32)
	defer tensor.SetPrecision(tensor.F64)
	PackWeights(d.Params())
	defer UnpackWeights(d.Params())
	d.W.affineInto(out, x, d.B.Value.Data) // packs W
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.W.affineInto(out, x, d.B.Value.Data)
	}
}
