package tensor

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// sweepBody32 is one body of the f32 sweep, run into a float64
// destination with tiles of up to rows rows; skip says why this host
// cannot run it ("" when it can).
type sweepBody32 struct {
	name string
	run  func(d []float64, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []float64)
	rows int
	skip string
}

// defaultNaN32 is the NaN x86 returns for an invalid f32 operation
// (∞·0, ∞ − ∞): negative, quiet, no payload.
var defaultNaN32 = math.Float32frombits(0xffc00000)

// quietBits32 is an f32 NaN's bits once an operation has quieted it.
func quietBits32(v float32) uint32 { return math.Float32bits(v) | 1<<22 }

// nanMeet32 is nanMeet for float32 operands.
func nanMeet32(vs ...float32) bool {
	var first uint32
	seen := false
	for _, v := range vs {
		if v == v {
			continue
		}
		if seen && quietBits32(v) != first {
			return true
		}
		first, seen = quietBits32(v), true
	}
	return false
}

// fma32 is the f32 fused multiply-add a·b + c, rounded once, with the
// sweeps' NaN rule: the first NaN of a (the A value), b (the B value) and
// c (the accumulator), quieted; an invalid operation gives the default
// NaN. The product of two float32 is exact in float64, and so is the sum
// when TwoSum leaves no error; otherwise math/big adds exactly and rounds
// once to float32 (rounding the float64 sum again could round twice).
func fma32(a, b, c float32) float32 {
	for _, v := range [...]float32{a, b, c} {
		if v != v {
			return math.Float32frombits(quietBits32(v))
		}
	}
	p, c64 := float64(a)*float64(b), float64(c)
	s := p + c64
	switch {
	case s != s:
		return defaultNaN32
	case math.IsInf(s, 0):
		return float32(s) // an infinite operand; finite ones cannot overflow float64
	}
	bb := s - p
	if (p-(s-bb))+(c64-bb) == 0 {
		return float32(s)
	}
	x := new(big.Float).SetPrec(1100).SetFloat64(p)
	x.Add(x, new(big.Float).SetFloat64(c64))
	f, _ := x.Float32()
	return f
}

// sweep32Data is one generated block: mrA32 A rows of kcb values and the
// packed panels of ncb columns, whose padding lanes past ncb hold data too.
type sweep32Data struct {
	kcb, ncb int
	a        [mrA32][]float32
	bpack    []float32
}

// edgeData32 narrows edge values and normals to float32, each element an
// edge value with probability 1/(every+1), NaNs replaced by 0.75; then
// it plants nans NaNs of distinct payloads, quiet and signalling.
func edgeData32(rng *rand.Rand, n, every, nans int) []float32 {
	out := make([]float32, n)
	for i := range out {
		v := rng.NormFloat64()
		if rng.Intn(every+1) == 0 {
			v = edgeValues[rng.Intn(len(edgeValues))]
		}
		if math.IsNaN(v) {
			v = 0.75
		}
		out[i] = float32(v)
	}
	for ; nans > 0; nans-- {
		payload := uint32(rng.Int63n(1<<21) + 1)
		if rng.Intn(2) == 0 {
			payload |= 1 << 22
		}
		out[rng.Intn(n)] = math.Float32frombits(0x7f800000 | payload)
	}
	return out
}

func newSweep32Data(rng *rand.Rand, kcb, panels, w int) *sweep32Data {
	s := &sweep32Data{kcb: kcb, ncb: (panels-1)*nr32 + w}
	// About two edge values per chain, so long chains still mostly stay
	// finite and round.
	every := max(kcb, 3)
	a := edgeData32(rng, mrA32*kcb, every, 2)
	for r := range s.a {
		s.a[r] = a[r*kcb : (r+1)*kcb]
	}
	s.bpack = edgeData32(rng, panels*kcb*nr32, every, 2)
	return s
}

// chains computes every tile element's k-block chain from zero, for each
// of the A rows: fused with fma32, or, for the portable body, as Go
// rounds the product and then the sum; exact is false where two NaNs of
// different payloads met, since which one Go arithmetic returns is not
// fixed.
func (s *sweep32Data) chains(fused bool) (v [mrA32][]float32, exact [mrA32][]bool) {
	for r := range v {
		v[r], exact[r] = make([]float32, s.ncb), make([]bool, s.ncb)
		for c := 0; c < s.ncb; c++ {
			var acc float32
			meet := false
			for p, av := range s.a[r] {
				bv := s.bpack[(c/nr32)*s.kcb*nr32+p*nr32+c%nr32]
				if fused {
					acc = fma32(av, bv, acc)
					continue
				}
				prod := float32(av * bv)
				meet = meet || nanMeet32(av, bv) || nanMeet32(prod, acc)
				acc += prod
			}
			v[r][c], exact[r][c] = acc, !meet
		}
	}
	return v, exact
}

// store32Definition is one tile element after the sweep's store: v the
// chain, d the element before, b its bias. The fused bodies' add takes
// the widened tile as its first source, d or the bias as its second, and
// x86 returns the first NaN source; Go arithmetic picks no fixed one, so
// for the portable body a NaN meeting a NaN of another payload is only
// NaN (exact false).
func store32Definition(v float32, d, b float64, mode int, fused bool) (float64, bool) {
	w := float64(v)
	var o float64
	switch mode {
	case storeSet:
		return w, true
	case storeAdd:
		o = d
	default:
		o = b
	}
	if fused {
		if n, ok := firstNaN(w, o); ok {
			return n, true
		}
	}
	return w + o, fused || !nanMeet(w, o)
}

// TestSweep32MatchesDefinition runs one tile row of a block through each
// body of the f32 sweep — the portable panel loop and, on amd64, the AVX2
// and AVX-512 assembly — in the set, add, row bias and column bias modes,
// for every row count up to the body's tile height (6, or 8 for AVX-512;
// fewer is a remainder tile, its missing A rows aliased to the last valid
// one), 1–5 panels with a last panel 1–16 lanes
// wide, and k-blocks of 1, 2, 3, 31, 32, 33 and 256. Operands,
// destination and bias mix signed zeros, infinities, float32 subnormals
// and normals with NaNs of distinct payloads; the packed panels' padding
// lanes hold data, which no store may leak. Every tile element must equal
// its definition by Float64bits: the fused bodies an exact f32 FMA chain
// (fma32) and the widening store with x86's NaN rule, the portable body
// the rounded product-then-sum chain with NaN payloads compared where
// only one can arrive. The AVX-512 body must equal the AVX2 body bit for
// bit (an 8-row tile against the AVX2 body's 6 rows, then 2), and every
// destination element outside the tile, a remainder tile's missing rows
// included, must keep its bits.
func TestSweep32MatchesDefinition(t *testing.T) {
	portable := sweepBody32{name: "go", run: func(d []float64, a *[mrA32][]float32, bpack []float32, ld, kcb, ncb, rows, mode int, bias []float64) {
		sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias, false)
	}, rows: mr32}
	fused := asmSweeps32()
	for bi, body := range append([]sweepBody32{portable}, fused...) {
		isFused := bi > 0
		t.Run(body.name, func(t *testing.T) {
			if body.skip != "" {
				t.Skip(body.skip)
			}
			var ref *sweepBody32 // the body this one must equal bit for bit
			if isFused && bi > 1 {
				ref = &fused[0]
			}
			checkSweep32(t, body, ref, isFused)
		})
	}
}

// sweepModes32 are the block modes an f32 sweep lands its tiles in.
var sweepModes32 = []struct {
	name string
	mode int
}{{"set", storeSet}, {"add", storeAdd}, {"row bias", storeRowBias}, {"column bias", storeColBias}}

func checkSweep32(t *testing.T, body sweepBody32, ref *sweepBody32, fused bool) {
	rng := rand.New(rand.NewSource(78))
	const i0, j0, below = 2, 3, 2 // the tile's row and column in dst; rows past it
	exactNaNs, meets := 0, map[int]int{}
	for _, kcb := range []int{1, 2, 3, 31, 32, 33, 256} {
		for panels := 1; panels <= 5; panels++ {
			for w := 1; w <= nr32; w++ {
				s := newSweep32Data(rng, kcb, panels, w)
				chain, chainExact := s.chains(fused)
				ld := j0 + s.ncb + 5
				for rows := 1; rows <= body.rows; rows++ {
					a := s.a
					for r := rows; r < mrA32; r++ {
						a[r] = a[rows-1]
					}
					for _, sm := range sweepModes32 {
						name := fmt.Sprintf("%s kcb=%d ncb=%d rows=%d", sm.name, kcb, s.ncb, rows)
						dst0 := edgeData(rng, (i0+mrA32+below)*ld)
						for e, v := range dst0 {
							if math.IsNaN(v) {
								dst0[e] = -1.25
							}
						}
						plantNaNs(rng, dst0[i0*ld:(i0+rows)*ld], 3)
						var bias []float64
						switch sm.mode {
						case storeRowBias:
							bias = edgeData(rng, rows)
						case storeColBias:
							bias = edgeData(rng, s.ncb)
						}
						got := append([]float64(nil), dst0...)
						body.run(got[i0*ld+j0:], &a, s.bpack, ld, kcb, s.ncb, rows, sm.mode, bias)
						if ref != nil {
							want := append([]float64(nil), dst0...)
							for r0 := 0; r0 < rows; r0 += ref.rows {
								n, ra, rb := min(ref.rows, rows-r0), a, bias
								for r := range ra {
									ra[r] = a[r0+min(r, n-1)]
								}
								if sm.mode == storeRowBias {
									rb = bias[r0:]
								}
								ref.run(want[(i0+r0)*ld+j0:], &ra, s.bpack, ld, kcb, s.ncb, n, sm.mode, rb)
							}
							if e := firstDiff64(got, want); e >= 0 {
								t.Fatalf("%s: element %d is %#x, the %s body wrote %#x", name, e,
									math.Float64bits(got[e]), ref.name, math.Float64bits(want[e]))
							}
						}
						for e := range dst0 {
							r, c := e/ld-i0, e%ld-j0
							if r < 0 || r >= rows || c < 0 || c >= s.ncb {
								if math.Float64bits(got[e]) != math.Float64bits(dst0[e]) {
									t.Fatalf("%s: element %d outside the tile was written", name, e)
								}
								continue
							}
							b, o := 0.0, dst0[e] // the bias; the store's second operand
							switch sm.mode {
							case storeRowBias:
								b, o = bias[r], bias[r]
							case storeColBias:
								b, o = bias[c], bias[c]
							}
							want, exact := store32Definition(chain[r][c], dst0[e], b, sm.mode, fused)
							exact = exact && chainExact[r][c]
							if exact && math.Float64bits(got[e]) != math.Float64bits(want) ||
								!exact && !math.IsNaN(got[e]) {
								t.Fatalf("%s: row %d column %d is %v (%#x), want %v (%#x)",
									name, r, c, got[e], math.Float64bits(got[e]), want, math.Float64bits(want))
							}
							if exact && math.IsNaN(want) {
								exactNaNs++
								if sm.mode != storeSet && nanMeet(float64(chain[r][c]), o) {
									meets[sm.mode]++
								}
							}
						}
					}
				}
			}
		}
	}
	if exactNaNs == 0 {
		t.Fatal("no NaN result was compared by its payload")
	}
	if fused && (meets[storeAdd] == 0 || meets[storeRowBias] == 0 || meets[storeColBias] == 0) {
		t.Fatalf("too few NaN tiles met a NaN operand of another payload in a store: %v", meets)
	}
}
