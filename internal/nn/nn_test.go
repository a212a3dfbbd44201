package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cip-fl/cip/internal/tensor"
)

func randLabels(rng *rand.Rand, n, k int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	return labels
}

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 5, 3)
	x := tensor.New(4, 5)
	x.RandNormal(rng, 0, 1)
	out, _ := d.Forward(x, true)
	if out.Shape[0] != 4 || out.Shape[1] != 3 {
		t.Fatalf("Dense output shape = %v, want [4 3]", out.Shape)
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(NewDense(rng, 6, 8), ReLU{}, NewDense(rng, 8, 4))
	x := tensor.New(3, 6)
	x.RandNormal(rng, 0, 1)
	if rel := GradCheck(net, x, randLabels(rng, 3, 4), 3); rel > 1e-4 {
		t.Fatalf("Dense grad check max relative error %v", rel)
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D(rng, g, 3),
		ReLU{},
		Flatten{},
		NewDense(rng, 3*5*5, 4),
	)
	x := tensor.New(2, 2, 5, 5)
	x.RandNormal(rng, 0, 1)
	if rel := GradCheck(net, x, randLabels(rng, 2, 4), 7); rel > 1e-4 {
		t.Fatalf("Conv grad check max relative error %v", rel)
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D(rng, g, 2),
		MaxPool2D{Size: 2},
		Flatten{},
		NewDense(rng, 2*3*3, 3),
	)
	x := tensor.New(2, 1, 6, 6)
	x.RandNormal(rng, 0, 1)
	if rel := GradCheck(net, x, randLabels(rng, 2, 3), 5); rel > 1e-4 {
		t.Fatalf("MaxPool grad check max relative error %v", rel)
	}
}

func TestResidualGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := tensor.ConvGeom{InC: 3, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	block := &Residual{Body: NewSequential(NewConv2D(rng, g, 3), ReLU{})}
	net := NewSequential(block, Flatten{}, NewDense(rng, 3*4*4, 3))
	x := tensor.New(2, 3, 4, 4)
	x.RandNormal(rng, 0, 1)
	if rel := GradCheck(net, x, randLabels(rng, 2, 3), 9); rel > 1e-4 {
		t.Fatalf("Residual grad check max relative error %v", rel)
	}
}

func TestDenseBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	block := &DenseBlock{Body: NewSequential(NewConv2D(rng, g, 2), ReLU{})}
	net := NewSequential(block, Flatten{}, NewDense(rng, 4*4*4, 3))
	x := tensor.New(2, 2, 4, 4)
	x.RandNormal(rng, 0, 1)
	if rel := GradCheck(net, x, randLabels(rng, 2, 3), 7); rel > 1e-4 {
		t.Fatalf("DenseBlock grad check max relative error %v", rel)
	}
}

func TestSoftmaxIsSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 1+r.Intn(8), 2+r.Intn(8)
		logits := tensor.New(n, k)
		logits.RandNormal(r, 0, 5)
		p := Softmax(logits)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < k; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := tensor.New(2, 4)
	logits.RandNormal(rng, 0, 1)
	shifted := logits.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 1000
	}
	if !tensor.Equal(Softmax(logits), Softmax(shifted), 1e-9) {
		t.Fatal("softmax is not shift invariant")
	}
}

func TestCrossEntropyNonNegativeAndGradSumsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(5, 7)
	logits.RandNormal(rng, 0, 2)
	labels := randLabels(rng, 5, 7)
	res := SoftmaxCrossEntropy(logits, labels)
	if res.Loss < 0 {
		t.Fatalf("CE loss = %v < 0", res.Loss)
	}
	for i, l := range res.PerSample {
		if l < 0 {
			t.Fatalf("per-sample loss[%d] = %v < 0", i, l)
		}
	}
	// Each gradient row of softmax-CE sums to zero.
	for i := 0; i < 5; i++ {
		s := 0.0
		for j := 0; j < 7; j++ {
			s += res.Grad.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 5, 1,
		1, 0, 3,
	}, 3, 3)
	if got := Accuracy(logits, []int{0, 1, 2}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{1, 1, 1}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 1/3", got)
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewSequential(NewDense(rng, 4, 16), ReLU{}, NewDense(rng, 16, 3))
	x := tensor.New(12, 4)
	x.RandNormal(rng, 0, 1)
	labels := randLabels(rng, 12, 3)
	opt := &SGD{LR: 0.1, Momentum: 0.9}

	losses := make([]float64, 0, 50)
	for i := 0; i < 50; i++ {
		ZeroGrads(net.Params())
		logits, cache := net.Forward(x, true)
		res := SoftmaxCrossEntropy(logits, labels)
		net.Backward(cache, res.Grad)
		opt.Step(net.Params())
		losses = append(losses, res.Loss)
	}
	if losses[len(losses)-1] > 0.5*losses[0] {
		t.Fatalf("SGD failed to fit: loss %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewSequential(NewDense(rng, 4, 16), ReLU{}, NewDense(rng, 16, 3))
	x := tensor.New(12, 4)
	x.RandNormal(rng, 0, 1)
	labels := randLabels(rng, 12, 3)
	opt := NewAdam(0.01)

	var first, last float64
	for i := 0; i < 60; i++ {
		ZeroGrads(net.Params())
		logits, cache := net.Forward(x, true)
		res := SoftmaxCrossEntropy(logits, labels)
		net.Backward(cache, res.Grad)
		opt.Step(net.Params())
		if i == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last > 0.5*first {
		t.Fatalf("Adam failed to fit: loss %v -> %v", first, last)
	}
}

func TestFlatParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewSequential(NewDense(rng, 5, 7), ReLU{}, NewDense(rng, 7, 2))
	flat := FlattenParams(net.Params())
	want := NumParams(net.Params())
	if len(flat) != want {
		t.Fatalf("flat length = %d, want %d", len(flat), want)
	}

	net2 := NewSequential(NewDense(rng, 5, 7), ReLU{}, NewDense(rng, 7, 2))
	if err := SetFlatParams(net2.Params(), flat); err != nil {
		t.Fatal(err)
	}
	flat2 := FlattenParams(net2.Params())
	for i := range flat {
		if flat[i] != flat2[i] {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, flat[i], flat2[i])
		}
	}

	if err := SetFlatParams(net2.Params(), flat[:len(flat)-1]); err == nil {
		t.Fatal("SetFlatParams accepted a short vector")
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := NewDense(rng, 4, 4)
	d.W.Grad.RandNormal(rng, 0, 10)
	d.B.Grad.RandNormal(rng, 0, 10)
	pre := ClipGradNorm(d.Params(), 1.0)
	if pre <= 1 {
		t.Fatalf("test setup: expected large pre-clip norm, got %v", pre)
	}
	var sq float64
	for _, p := range d.Params() {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	if post := math.Sqrt(sq); math.Abs(post-1.0) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", post)
	}
}

// TestSharedBackboneGradAccumulation verifies the property the dual-channel
// model depends on: forwarding two inputs through one network and
// backpropagating both accumulates the sum of both gradient contributions.
func TestSharedBackboneGradAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewSequential(NewDense(rng, 3, 5), ReLU{}, NewDense(rng, 5, 2))
	xa := tensor.New(2, 3)
	xb := tensor.New(2, 3)
	xa.RandNormal(rng, 0, 1)
	xb.RandNormal(rng, 0, 1)
	labels := []int{0, 1}

	grads := func(x *tensor.Tensor) []float64 {
		ZeroGrads(net.Params())
		logits, cache := net.Forward(x, true)
		res := SoftmaxCrossEntropy(logits, labels)
		net.Backward(cache, res.Grad)
		return FlattenGrads(net.Params())
	}
	ga := grads(xa)
	gb := grads(xb)

	ZeroGrads(net.Params())
	la, ca := net.Forward(xa, true)
	lb, cb := net.Forward(xb, true)
	ra := SoftmaxCrossEntropy(la, labels)
	rb := SoftmaxCrossEntropy(lb, labels)
	net.Backward(ca, ra.Grad)
	net.Backward(cb, rb.Grad)
	gBoth := FlattenGrads(net.Params())

	for i := range gBoth {
		if math.Abs(gBoth[i]-(ga[i]+gb[i])) > 1e-10 {
			t.Fatalf("shared-backbone grad[%d] = %v, want %v", i, gBoth[i], ga[i]+gb[i])
		}
	}
}

func TestConcatChannels(t *testing.T) {
	a := tensor.New(1, 2, 2, 2)
	b := tensor.New(1, 1, 2, 2)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	for i := range b.Data {
		b.Data[i] = 100 + float64(i)
	}
	out := ConcatChannels(a, b)
	if out.Shape[1] != 3 {
		t.Fatalf("concat channels = %d, want 3", out.Shape[1])
	}
	if out.At(0, 0, 0, 0) != 0 || out.At(0, 2, 0, 0) != 100 {
		t.Fatalf("concat misplaced data: %v", out.Data)
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := NewDense(rng, 10, 5)
	if got := NumParams(d.Params()); got != 10*5+5 {
		t.Fatalf("NumParams = %d, want 55", got)
	}
}
