package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The GEMM's edge routines (kernel_amd64.go, edge_amd64.s) replace
// portable loops and must write the same bits. Each test here runs the
// dispatching routine and the portable loop it replaces side by side and
// compares them by Float64bits/Float32bits, and holds the portable loop to
// the plain definition. On a build without the vector routines both sides
// are the portable loop, and the definitions still hold.

// edgeValues are the float64 inputs whose conversion or addition has a
// corner: signed zeros, infinities, quiet and signalling NaNs with
// payloads, float64 subnormals, values beyond ±MaxFloat32, values that
// round to float32 subnormals (and to its smallest one, and to zero),
// and a float32 rounding tie.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
	math.Float64frombits(0xfff8dead0000beef), // negative quiet NaN with payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN, low payload
	math.Float64frombits(0x7ff4000020000000), // signalling NaN, payload kept by narrowing
	math.SmallestNonzeroFloat64, -5e-324, 2.2250738585072e-308,
	math.MaxFloat64, -math.MaxFloat64, 3.5e38, -3.41e38,
	float64(math.MaxFloat32), math.Nextafter(math.MaxFloat32, math.Inf(1)),
	1e-40, -3e-42, 1.4e-45, -7e-46, 7.1e-46, 1e-46,
	1 + 1.0/(1<<24), 1 + 3.0/(1<<24), -1 - 1.0/(1<<24),
	1.5, -2.25, 0.1, -1e10,
}

// edgeData returns n values drawn from edgeValues mixed with normals.
func edgeData(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

func firstDiff64(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func firstDiff32(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// packDefinition is the (pc, jc) block of op(b) in panel order at panel
// width w, zero-padded past ncb.
func packDefinition(b []float64, k, n, pc, jc, kcb, ncb, w int, transB bool) []float64 {
	panels := (ncb + w - 1) / w
	out := make([]float64, panels*kcb*w)
	for jp := 0; jp < panels; jp++ {
		for p := 0; p < kcb; p++ {
			for j := 0; j < w; j++ {
				col := jp*w + j
				if col >= ncb {
					continue
				}
				if transB {
					out[jp*kcb*w+p*w+j] = b[(jc+col)*k+pc+p]
				} else {
					out[jp*kcb*w+p*w+j] = b[(pc+p)*n+jc+col]
				}
			}
		}
	}
	return out
}

// packPortable is packB / packB32's panel walk with the portable loops.
func packPortable(b []float64, k, n, pc, jc, kcb, ncb int, transB bool) ([]float64, []float32) {
	d64 := make([]float64, roundUp(ncb, nr)*kcb)
	for jp := 0; jp*nr < ncb; jp++ {
		col, w := jc+jp*nr, min(nr, ncb-jp*nr)
		if transB {
			packPanelTGo(d64[jp*kcb*nr:], b[col*k+pc:], k, kcb, w)
		} else {
			packPanelGo(d64[jp*kcb*nr:], b[pc*n+col:], n, kcb, w)
		}
	}
	d32 := make([]float32, roundUp(ncb, nr32)*kcb)
	for jp := 0; jp*nr32 < ncb; jp++ {
		col, w := jc+jp*nr32, min(nr32, ncb-jp*nr32)
		if transB {
			packPanelT32Go(d32[jp*kcb*nr32:], b[col*k+pc:], k, kcb, w)
		} else {
			packPanel32Go(d32[jp*kcb*nr32:], b[pc*n+col:], n, kcb, w)
		}
	}
	return d64, d32
}

// TestPackMatchesPortable packs every (kc, nc) block of op(b) in both
// tiers, transB on and off, over depths that leave a k tail (kcb mod 4 ≠
// 0), widths that leave a ragged last panel, and k > kcBlock, n > ncBlock.
// The f32 panels narrow edge values. The dispatching pack, the portable
// loops and the definition must agree bit for bit; PackedB.Pack must
// write the same panels at the same offsets.
func TestPackMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	defer SetPrecision(F64)
	// {k, n}: op(b) is k×n.
	shapes := [][2]int{{1, 8}, {3, 16}, {4, 16}, {7, 21}, {13, 48}, {32, 600}, {258, 33}, {301, 530}}
	for _, sh := range shapes {
		k, n := sh[0], sh[1]
		for _, transB := range []bool{false, true} {
			b := edgeData(rng, k*n)
			bt := &Tensor{Shape: []int{k, n}, Data: b}
			if transB {
				bt.Shape = []int{n, k}
			}
			var pk64, pk32 PackedB
			SetPrecision(F64)
			pk64.Pack(bt, transB)
			SetPrecision(F32)
			pk32.Pack(bt, transB)
			for jc := 0; jc < n; jc += ncBlock {
				ncb := min(ncBlock, n-jc)
				for pc := 0; pc < k; pc += kcBlock {
					kcb := min(kcBlock, k-pc)
					name := fmt.Sprintf("k=%d n=%d transB=%v block (%d,%d)", k, n, transB, pc, jc)
					go64, go32 := packPortable(b, k, n, pc, jc, kcb, ncb, transB)

					want := packDefinition(b, k, n, pc, jc, kcb, ncb, nr, transB)
					if i := firstDiff64(go64, want); i >= 0 {
						t.Fatalf("%s: portable f64 pack differs from the definition at %d", name, i)
					}
					got := make([]float64, len(want))
					packB(got, b, pc, jc, kcb, ncb, gemmShape{k: k, n: n, transB: transB})
					if i := firstDiff64(got, go64); i >= 0 {
						t.Fatalf("%s: f64 pack differs from the portable loop at %d", name, i)
					}
					if i := firstDiff64(pk64.d64[blockOffset(k, pc, jc, ncb, nr):], got); i >= 0 {
						t.Fatalf("%s: PackedB f64 block differs at %d", name, i)
					}

					want32 := make([]float32, len(go32))
					NarrowSlice(want32, packDefinition(b, k, n, pc, jc, kcb, ncb, nr32, transB))
					if i := firstDiff32(go32, want32); i >= 0 {
						t.Fatalf("%s: portable f32 pack differs from the definition at %d", name, i)
					}
					got32 := make([]float32, len(want32))
					packB32(got32, b, pc, jc, kcb, ncb, gemmShape32[float64]{k: k, n: n, transB: transB})
					if i := firstDiff32(got32, go32); i >= 0 {
						t.Fatalf("%s: f32 pack differs from the portable loop at %d", name, i)
					}
					if i := firstDiff32(pk32.d32[blockOffset(k, pc, jc, ncb, nr32):], got32); i >= 0 {
						t.Fatalf("%s: PackedB f32 block differs at %d", name, i)
					}
				}
			}
		}
	}
}

// TestTransposeNarrowMatchesPortable: staging Aᵀ for the mixed path in one
// transpose-and-narrow pass writes the bits TransposeInto then NarrowSlice
// wrote, over shapes with and without 4-aligned edges, edge values
// included, and the portable loop agrees.
func TestTransposeNarrowMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, k := range []int{1, 3, 4, 7, 8, 32, 33} {
		for _, m := range []int{1, 2, 4, 5, 9, 36, 513} {
			a := &Tensor{Shape: []int{k, m}, Data: edgeData(rng, k*m)}
			at := New(m, k)
			TransposeInto(at, a)
			want := make([]float32, m*k)
			NarrowSlice(want, at.Data)
			got := make([]float32, m*k)
			transposeNarrow(got, a.Data, k, m)
			if i := firstDiff32(got, want); i >= 0 {
				t.Fatalf("k=%d m=%d: element %d differs from TransposeInto+NarrowSlice", k, m, i)
			}
			clear(got)
			transposeNarrowGo(got, a.Data, k, m, 0, 0)
			if i := firstDiff32(got, want); i >= 0 {
				t.Fatalf("k=%d m=%d: portable loop differs at element %d", k, m, i)
			}
		}
	}
}

// TestNarrowingEdgeValues pins each narrowing routine to Go's float32()
// on every edge value, at every lane position of a panel, a tile row and a
// transposed strip: NaN payloads (quiet and signalling), signed zeros,
// overflow to ±Inf, and rounding into and below the float32 subnormals.
func TestNarrowingEdgeValues(t *testing.T) {
	n := len(edgeValues)
	for shift := 0; shift < nr32; shift++ {
		// A 16×n operand whose row p, column j holds value (p+j+shift) mod n.
		const k = 16
		b := make([]float64, k*n)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				b[p*n+j] = edgeValues[(p+j+shift)%n]
			}
		}
		for _, transB := range []bool{false, true} {
			kk, nn := k, n
			if transB {
				kk, nn = n, k // b read as 16 rows of n: op(b) is n×16
			}
			got := make([]float32, roundUp(nn, nr32)*kk)
			packB32(got, b, 0, 0, kk, nn, gemmShape32[float64]{k: kk, n: nn, transB: transB})
			want := make([]float32, len(got))
			NarrowSlice(want, packDefinition(b, kk, nn, 0, 0, kk, nn, nr32, transB))
			if i := firstDiff32(got, want); i >= 0 {
				t.Fatalf("shift %d transB=%v: panel element %d is %#x, want %#x",
					shift, transB, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		got := make([]float32, k*n)
		transposeNarrow(got, b, k, n)
		for i := 0; i < n; i++ {
			for p := 0; p < k; p++ {
				if w := float32(b[p*n+i]); math.Float32bits(got[i*k+p]) != math.Float32bits(w) {
					t.Fatalf("shift %d: transposed element (%d,%d) is %#x, want %#x",
						shift, i, p, math.Float32bits(got[i*k+p]), math.Float32bits(w))
				}
			}
		}
	}
}

// TestMomentumStepMatchesSeparatePasses: the fused momentum step writes
// the velocity and weight bits of ScaleInPlace, AxpyInPlace(v, 1, g) and
// AxpyInPlace(w, alpha, v), at mu = 0 and mu > 0, for every length from 0
// through 9 (the vector body, its scalar remainder, and both) and one
// longer run. The inputs are finite edge values; which NaN payload wins
// an operation is the hardware's, and kernel_amd64_test.go pins it there.
func TestMomentumStepMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	finite := func(n int) []float64 {
		out := edgeData(rng, n)
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out[i] = 0.5
			}
		}
		return out
	}
	for _, mu := range []float64{0, 0.9} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 37} {
			w, v, g := New(n), New(n), New(n)
			copy(w.Data, finite(n))
			copy(v.Data, finite(n))
			copy(g.Data, finite(n))
			wantW, wantV := w.Clone(), v.Clone()
			ScaleInPlace(wantV, mu)
			AxpyInPlace(wantV, 1, g)
			AxpyInPlace(wantW, -0.05, wantV)
			MomentumStep(w, v, g, mu, -0.05)
			if i := firstDiff64(v.Data, wantV.Data); i >= 0 {
				t.Fatalf("mu=%v n=%d: velocity %d is %v, want %v", mu, n, i, v.Data[i], wantV.Data[i])
			}
			if i := firstDiff64(w.Data, wantW.Data); i >= 0 {
				t.Fatalf("mu=%v n=%d: weight %d is %v, want %v", mu, n, i, w.Data[i], wantW.Data[i])
			}
		}
	}
}

// TestAddRowsMatchesRowLoop: col2im's per-tap add of rows runs writes the
// bits of its portable row loop (one axpyRow(·, ·, 1) per run) and of the
// definition dst + src, for runs of 0 through 17 (the 8- and 4-lane bodies
// and the scalar tail, alone and together) and 32, one to five rows, equal
// and unequal strides. Values are edge values, NaNs with payloads
// included; where a NaN meets a NaN of another payload only NaN-ness is
// held to the definition. The source is never written, and nothing in the
// destination outside the runs.
func TestAddRowsMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	runs := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 32}
	for _, run := range runs {
		for rows := 1; rows <= 5; rows++ {
			for _, ld := range [][2]int{{run, run}, {run + 3, run + 1}, {run + 1, run + 6}} {
				ldd, lds := max(ld[0], 1), max(ld[1], 1)
				name := fmt.Sprintf("run=%d rows=%d ldd=%d lds=%d", run, rows, ldd, lds)
				const off = 2 // the first run's offset in dst and src
				dst0 := edgeData(rng, off+rows*ldd+3)
				src := edgeData(rng, off+rows*lds+3)
				src0 := append([]float64(nil), src...)
				got, want := append([]float64(nil), dst0...), append([]float64(nil), dst0...)
				addRows(got[off:], src[off:], ldd, lds, run, rows)
				addRowsGo(want[off:], src[off:], ldd, lds, run, rows)
				if i := firstDiff64(got, want); i >= 0 {
					t.Fatalf("%s: element %d is %#x, the row loop wrote %#x", name, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if i := firstDiff64(src, src0); i >= 0 {
					t.Fatalf("%s: source element %d was written", name, i)
				}
				for i := range dst0 {
					r, x := (i-off)/ldd, (i-off)%ldd
					if i < off || r >= rows || x >= run {
						if math.Float64bits(got[i]) != math.Float64bits(dst0[i]) {
							t.Fatalf("%s: element %d outside the runs was written", name, i)
						}
						continue
					}
					d, v := dst0[i], src[off+r*lds+x]
					def := d + v
					if nanMeet(d, v) && !math.IsNaN(got[i]) ||
						!nanMeet(d, v) && math.Float64bits(got[i]) != math.Float64bits(def) {
						t.Fatalf("%s: row %d lane %d is %#x, want %#x", name, r, x,
							math.Float64bits(got[i]), math.Float64bits(def))
					}
				}
			}
		}
	}
}
