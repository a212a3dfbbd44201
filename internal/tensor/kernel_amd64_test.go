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

// asmSweeps32 are the f32 sweep's assembly bodies, each skipped on a
// host that cannot run it.
func asmSweeps32() []sweepBody32 {
	asm := func(body int) func(d []float64, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []float64) {
		return func(d []float64, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []float64) {
			sweepAsm32(body, d, a, bpack, ld, kcb, ncb, rows, mode, bias)
		}
	}
	out := []sweepBody32{
		{name: "avx2", run: asm(body32AVX2), rows: sweep32Rows(body32AVX2)},
		{name: "avx512", run: asm(body32AVX512), rows: sweep32Rows(body32AVX512)},
	}
	if !hasFMAKernel {
		out[0].skip = "no AVX2+FMA on this CPU"
		out[1].skip = out[0].skip
	}
	if sweep32Body != body32AVX512 {
		out[1].skip = "no AVX-512F+DQ with OS-saved ZMM and opmask state on this CPU"
	}
	return out
}

// TestDecodeCPU pins the dispatch rule to the feature bits: the AVX2
// routines need FMA, AVX, OSXSAVE, AVX2 and XCR0's SSE and AVX state; the
// AVX-512 sweep also AVX-512F, DQ and XCR0's opmask and ZMM state, and
// falls back to AVX2 without them.
func TestDecodeCPU(t *testing.T) {
	const (
		ecx    = fmaBit | osxsaveBit | avxBit
		ebx    = avx2Bit | avx512fBit | avx512dqBit
		xcr0   = xcr0YMM | xcr0ZMM
		noZMM  = xcr0YMM
		avx512 = avx512fBit | avx512dqBit
	)
	cases := []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		fma              bool
		body             int
	}{
		{"everything", ecx, ebx, xcr0, true, body32AVX512},
		{"AVX-512F without XCR0 bits 5-7", ecx, ebx, noZMM, true, body32AVX2},
		{"AVX-512F without opmask state", ecx, ebx, xcr0 &^ 0x20, true, body32AVX2},
		{"AVX-512F without ZMM0-15 upper halves", ecx, ebx, xcr0 &^ 0x40, true, body32AVX2},
		{"AVX-512F without ZMM16-31", ecx, ebx, xcr0 &^ 0x80, true, body32AVX2},
		{"AVX-512F without DQ", ecx, ebx &^ avx512dqBit, xcr0, true, body32AVX2},
		{"AVX-512DQ without F", ecx, ebx &^ avx512fBit, xcr0, true, body32AVX2},
		{"AVX2 and FMA, no AVX-512", ecx, avx2Bit, noZMM, true, body32AVX2},
		{"AVX2 without FMA", ecx &^ fmaBit, ebx, xcr0, false, body32Go},
		{"FMA without AVX2", ecx, avx512, xcr0, false, body32Go},
		{"no AVX", ecx &^ avxBit, ebx, xcr0, false, body32Go},
		{"no OSXSAVE", ecx &^ osxsaveBit, ebx, 0, false, body32Go},
		{"OS saves no YMM state", ecx, ebx, 0x2, false, body32Go},
		{"no leaf 7", ecx, 0, xcr0, false, body32Go},
		{"nothing", 0, 0, 0, false, body32Go},
	}
	for _, c := range cases {
		fma, body := decodeCPU(c.ecx1, c.ebx7, c.xcr0)
		if fma != c.fma || body != c.body {
			t.Errorf("%s: decodeCPU = (%v, %d), want (%v, %d)", c.name, fma, body, c.fma, c.body)
		}
	}
}
