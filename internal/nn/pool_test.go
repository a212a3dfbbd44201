package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/tensor"
)

// TestMaxPool2MatchesGeneric: the 2×2 pooling loop returns the generic
// loop's maxima by Float64bits and its argmax indices. Every window of
// four drawn from NaNs with two payloads, ±0, ties and ±Inf appears once,
// so a NaN sits at each of the four positions, alone and beside another,
// and ties and signed zeros are decided by position; then random planes
// with odd heights and widths, whose last row or column no window covers.
func TestMaxPool2MatchesGeneric(t *testing.T) {
	vals := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff800000000beef),
		0, math.Copysign(0, -1), 1, 1, -1, math.Inf(1), math.Inf(-1),
	}
	nv := len(vals)
	windows := nv * nv * nv * nv
	every := tensor.New(1, 1, 2, 2*windows)
	for win := 0; win < windows; win++ {
		// Position q (row-major in the window) holds digit q of win in base nv.
		for q, d := 0, win; q < 4; q, d = q+1, d/nv {
			every.Data[q/2*2*windows+2*win+q%2] = vals[d%nv]
		}
	}
	rng := rand.New(rand.NewSource(8))
	random := tensor.New(2, 3, 7, 9)
	random.RandNormal(rng, 0, 1)
	for _, x := range []*tensor.Tensor{every, random} {
		out, cache := MaxPool2D{Size: 2}.Forward(x, true)
		argmax := cache.(*maxPoolCache).argmax
		n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		want := make([]float64, out.Size())
		wantArg := make([]int, out.Size())
		maxPoolN(want, wantArg, x.Data, 2, n*c, h, w)
		for i := range want {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want[i]) || argmax[i] != wantArg[i] {
				t.Fatalf("shape %v output %d: got %v (%#x) from %d, want %v (%#x) from %d", x.Shape, i,
					out.Data[i], math.Float64bits(out.Data[i]), argmax[i],
					want[i], math.Float64bits(want[i]), wantArg[i])
			}
		}
	}
}

// BenchmarkMaxPool2D times the 2×2 pooling forward over [32, 10, 32, 32],
// the cip_vgg_f64 backbone's first pool, with output and argmax in a
// workspace rewound after every pass.
func BenchmarkMaxPool2D(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := tensor.New(32, 10, 32, 32)
	src.RandNormal(rng, 0, 1)
	ws := &tensor.Workspace{}
	var x *tensor.Tensor
	var inputs tensor.Mark
	setup := func() {
		ws.Reset()
		x = ws.New(src.Shape...)
		copy(x.Data, src.Data)
		inputs = ws.Mark()
	}
	setup()
	MaxPool2D{Size: 2}.Forward(x, true)
	setup() // the slab now holds a whole pass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D{Size: 2}.Forward(x, true)
		ws.Rewind(inputs)
	}
}
