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

// BenchmarkConv2D times one Conv2D layer's train-mode forward plus
// BackwardFor, for each want, at the three cip_vgg_f64 convolutions and
// batch 32. Input and output gradient live in a workspace that is reset
// every iteration, as in a CIP step, so a warmed iteration allocates
// nothing; run with -benchmem to see it, and -cpu 1 for per-core numbers.
func BenchmarkConv2D(b *testing.B) {
	layers := []struct {
		name string
		g    tensor.ConvGeom
		outC int
	}{
		{"3to10_32x32", tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 10},
		{"10to10_32x32", tensor.ConvGeom{InC: 10, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 10},
		{"10to14_16x16", tensor.ConvGeom{InC: 10, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 14},
	}
	wants := []struct {
		name string
		want Grads
	}{{"params", ParamGrads}, {"input", InputGrad}, {"all", AllGrads}}
	for _, l := range layers {
		for _, w := range wants {
			b.Run(l.name+"/"+w.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				c := NewConv2D(rng, l.g, l.outC)
				x := tensor.New(32, l.g.InC, l.g.InH, l.g.InW)
				x.RandNormal(rng, 0, 1)
				grad := tensor.New(32, l.outC, l.g.OutH(), l.g.OutW())
				grad.RandNormal(rng, 0, 1)
				ws := &tensor.Workspace{}
				pass := func() {
					wx := ws.New(x.Shape...)
					copy(wx.Data, x.Data)
					wg := ws.New(grad.Shape...)
					copy(wg.Data, grad.Data)
					_, cache := c.Forward(wx, true)
					c.BackwardFor(cache, wg, w.want)
					ws.Reset()
				}
				pass() // sizes the workspace slab
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
			})
		}
	}
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
