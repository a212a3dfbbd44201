package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestScalarKernelMatchesFMA verifies the Go fallback micro-kernel against
// the assembly path on machines that have it. Both run the same blocked
// schedule, so the only divergence is FMA's fused rounding step.
//
// It also pins the f64 row remainder under each body: in a dense product
// whose m is not a multiple of mr (m mod 4 = 1, 2, 3; k over two k-blocks;
// a column bias; a ragged last panel) the last m mod 4 rows are the
// unfused scalar chain, each k-block's products rounded then summed in k
// order, the first block's sum plus the bias and later blocks' sums added
// to it, by Float64bits. A body that fused those rows would differ.
func TestScalarKernelMatchesFMA(t *testing.T) {
	if !hasFMAKernel {
		t.Skip("no FMA micro-kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(9))
	for _, s := range [][3]int{{17, 33, 29}, {64, 64, 64}, {70, 257, 64}} {
		a, b := New(s[0], s[1]), New(s[1], s[2])
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		fma := MatMul(a, b)
		var scalar *Tensor
		withBody(bodyGo, func() { scalar = MatMul(a, b) })
		if !Equal(fma, scalar, 1e-10) {
			t.Fatalf("FMA and scalar micro-kernels diverge on %v", s)
		}
	}

	avx2Skip, avx512Skip := asmSkips()
	bodies := []struct {
		name string
		body int
		skip string
	}{{"go", bodyGo, ""}, {"avx2", bodyAVX2, avx2Skip}, {"avx512", bodyAVX512, avx512Skip}}
	const k, n = kcBlock + 44, 21
	for _, m := range []int{13, 6, 3} {
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		bias := randMat(rng, 1, n).Data
		for _, body := range bodies {
			if body.skip != "" {
				t.Logf("remainder under the %s body skipped: %s", body.name, body.skip)
				continue
			}
			got := New(m, n)
			withBody(body.body, func() { MatMulBiasInto(got, a, b, bias) })
			for i := m &^ (mr - 1); i < m; i++ {
				for j := 0; j < n; j++ {
					var want float64
					for pc := 0; pc < k; pc += kcBlock {
						var acc float64
						for p := pc; p < min(pc+kcBlock, k); p++ {
							acc += float64(a.Data[i*k+p] * b.Data[p*n+j])
						}
						if pc == 0 {
							want = acc + bias[j]
						} else {
							want += acc
						}
					}
					if g := got.Data[i*n+j]; math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s body, m=%d: remainder row %d column %d is %v (%#x), the unfused chain %v (%#x)",
							body.name, m, i, j, g, math.Float64bits(g), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// withBody runs fn with the sweeps of both tiers, their tile heights and
// hasFMAKernel set as decodeCPU sets them for body, then restores them.
func withBody(body int, fn func()) {
	fma, prev := hasFMAKernel, sweepBody
	defer func() {
		hasFMAKernel, sweepBody = fma, prev
		tileRows, tileRows32 = sweepRows(prev), sweep32Rows(prev)
	}()
	hasFMAKernel, sweepBody = body != bodyGo, body
	tileRows, tileRows32 = sweepRows(body), sweep32Rows(body)
	fn()
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
			sweepAsm(body, d, a, bpack, ld, kcb, ncb, rows, mode, bias)
		}
	}
	out := []sweepBody32{
		{name: "avx2", run: asm(bodyAVX2), rows: sweep32Rows(bodyAVX2)},
		{name: "avx512", run: asm(bodyAVX512), rows: sweep32Rows(bodyAVX512)},
	}
	out[0].skip, out[1].skip = asmSkips()
	return out
}

// asmSweeps are the f64 sweep's assembly bodies, each skipped on a host
// that cannot run it.
func asmSweeps() []sweepBody64 {
	asm := func(body int) func(d []float64, a *[mrA][]float64, bpack []float64, ld, kcb, ncb, rows, mode int, bias []float64) {
		return func(d []float64, a *[mrA][]float64, bpack []float64, ld, kcb, ncb, rows, mode int, bias []float64) {
			sweepAsm(body, d, a, bpack, ld, kcb, ncb, rows, mode, bias)
		}
	}
	out := []sweepBody64{
		{name: "avx2", run: asm(bodyAVX2), rows: sweepRows(bodyAVX2), fused: true},
		{name: "avx512", run: asm(bodyAVX512), rows: sweepRows(bodyAVX512), fused: true},
	}
	out[0].skip, out[1].skip = asmSkips()
	return out
}

// asmSkips says why this host cannot run the AVX2 and the AVX-512 bodies
// ("" where it can).
func asmSkips() (avx2, avx512 string) {
	if !hasFMAKernel {
		avx2 = "no AVX2+FMA on this CPU"
		return avx2, avx2
	}
	if sweepBody != bodyAVX512 {
		avx512 = "no AVX-512F+DQ with OS-saved ZMM and opmask state on this CPU"
	}
	return avx2, avx512
}

// TestDecodeCPU pins the dispatch rule to the feature bits: the AVX2
// routines need FMA, AVX, OSXSAVE, AVX2 and XCR0's SSE and AVX state; the
// AVX-512 sweeps also AVX-512F, DQ and XCR0's opmask and ZMM state, and
// fall back to AVX2 without them. One decode fixes both tiers' tiles.
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
		{"everything", ecx, ebx, xcr0, true, bodyAVX512},
		{"AVX-512F without XCR0 bits 5-7", ecx, ebx, noZMM, true, bodyAVX2},
		{"AVX-512F without opmask state", ecx, ebx, xcr0 &^ 0x20, true, bodyAVX2},
		{"AVX-512F without ZMM0-15 upper halves", ecx, ebx, xcr0 &^ 0x40, true, bodyAVX2},
		{"AVX-512F without ZMM16-31", ecx, ebx, xcr0 &^ 0x80, true, bodyAVX2},
		{"AVX-512F without DQ", ecx, ebx &^ avx512dqBit, xcr0, true, bodyAVX2},
		{"AVX-512DQ without F", ecx, ebx &^ avx512fBit, xcr0, true, bodyAVX2},
		{"AVX2 and FMA, no AVX-512", ecx, avx2Bit, noZMM, true, bodyAVX2},
		{"AVX2 without FMA", ecx &^ fmaBit, ebx, xcr0, false, bodyGo},
		{"FMA without AVX2", ecx, avx512, xcr0, false, bodyGo},
		{"no AVX", ecx &^ avxBit, ebx, xcr0, false, bodyGo},
		{"no OSXSAVE", ecx &^ osxsaveBit, ebx, 0, false, bodyGo},
		{"OS saves no YMM state", ecx, ebx, 0x2, false, bodyGo},
		{"no leaf 7", ecx, 0, xcr0, false, bodyGo},
		{"nothing", 0, 0, 0, false, bodyGo},
	}
	for _, c := range cases {
		fma, body := decodeCPU(c.ecx1, c.ebx7, c.xcr0)
		if fma != c.fma || body != c.body {
			t.Errorf("%s: decodeCPU = (%v, %d), want (%v, %d)", c.name, fma, body, c.fma, c.body)
		}
	}

	tiles := []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		body, f64, f32   int
	}{
		{"AVX-512F+DQ with XCR0 bits 5-7", ecx, ebx, xcr0, bodyAVX512, 8, 8},
		{"AVX-512F+DQ without XCR0 bits 5-7", ecx, ebx, noZMM, bodyAVX2, 4, 6},
		{"AVX2 without FMA", ecx &^ fmaBit, ebx, xcr0, bodyGo, 4, 6},
	}
	for _, c := range tiles {
		_, body := decodeCPU(c.ecx1, c.ebx7, c.xcr0)
		if f64, f32 := sweepRows(body), sweep32Rows(body); body != c.body || f64 != c.f64 || f32 != c.f32 {
			t.Errorf("%s: body %d with tiles of %d (f64) and %d (f32) rows, want body %d with %d and %d",
				c.name, body, f64, f32, c.body, c.f64, c.f32)
		}
	}
	if tileRows != sweepRows(sweepBody) || tileRows32 != sweep32Rows(sweepBody) {
		t.Errorf("running tiles %d (f64) and %d (f32), want those of body %d", tileRows, tileRows32, sweepBody)
	}
	t.Logf("this host runs the %s bodies: f64 tiles of %d rows, f32 tiles of %d",
		[...]string{bodyGo: "go", bodyAVX2: "avx2", bodyAVX512: "avx512"}[sweepBody], tileRows, tileRows32)
}
