package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestScalarKernelMatchesFMA verifies the Go fallback micro-kernel against
// the AVX2+FMA assembly path on machines that have it. Both run the same
// blocked schedule, so the only divergence is FMA's fused rounding step.
func TestScalarKernelMatchesFMA(t *testing.T) {
	if !hasFMAKernel {
		t.Skip("no FMA micro-kernel on this CPU")
	}
	defer func() { hasFMAKernel = true }()
	rng := rand.New(rand.NewSource(9))
	for _, s := range [][3]int{{17, 33, 29}, {64, 64, 64}, {70, 257, 64}} {
		a, b := New(s[0], s[1]), New(s[1], s[2])
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		fma := MatMul(a, b)
		hasFMAKernel = false
		scalar := MatMul(a, b)
		hasFMAKernel = true
		if !Equal(fma, scalar, 1e-10) {
			t.Fatalf("FMA and scalar micro-kernels diverge on %v", s)
		}
	}
}

// TestMomentumStepNaNPayloads: where a velocity, gradient or weight is a
// NaN, the fused momentum step propagates the payload the three separate
// passes propagate. Which NaN operand wins is fixed by the hardware and
// each instruction's operand roles, so this holds on amd64 only.
func TestMomentumStepNaNPayloads(t *testing.T) {
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	snan := func(payload uint64) float64 { return math.Float64frombits(0x7ff0000000000000 | payload) }
	vals := []float64{1.5, -0.25, nan(1), nan(0xbeef), snan(7), snan(0x2000), math.Inf(1), math.Inf(-1), 0}
	n := len(vals) * len(vals) * len(vals)
	w, v, g := New(n), New(n), New(n)
	i := 0
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				w.Data[i], v.Data[i], g.Data[i] = a, b, c
				i++
			}
		}
	}
	wantW, wantV := w.Clone(), v.Clone()
	ScaleInPlace(wantV, 0.9)
	AxpyInPlace(wantV, 1, g)
	AxpyInPlace(wantW, -0.05, wantV)
	MomentumStep(w, v, g, 0.9, -0.05)
	for i := range w.Data {
		if math.Float64bits(v.Data[i]) != math.Float64bits(wantV.Data[i]) ||
			math.Float64bits(w.Data[i]) != math.Float64bits(wantW.Data[i]) {
			t.Fatalf("element %d: got v %#x w %#x, want v %#x w %#x", i,
				math.Float64bits(v.Data[i]), math.Float64bits(w.Data[i]),
				math.Float64bits(wantV.Data[i]), math.Float64bits(wantW.Data[i]))
		}
	}
}
