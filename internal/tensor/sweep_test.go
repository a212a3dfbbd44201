package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sweepModes are the block modes a sweep lands its tiles in.
var sweepModes = []struct {
	name string
	mode int
}{
	{"set", storeSet}, {"add", storeAdd}, {"row bias", storeRowBias},
	{"column bias", storeColBias}, {"chain", storeChain},
}

// quietBits is a NaN's bits once an arithmetic operation has quieted it.
func quietBits(v float64) uint64 { return math.Float64bits(v) | 1<<51 }

// nanMeet reports whether two of vs are NaNs with different payloads: an
// operation on them returns one of the two, and which one depends on the
// operand order, which the compiler may pick for Go arithmetic.
func nanMeet(vs ...float64) bool {
	var first uint64
	seen := false
	for _, v := range vs {
		if !math.IsNaN(v) {
			continue
		}
		if seen && quietBits(v) != first {
			return true
		}
		first, seen = quietBits(v), true
	}
	return false
}

// firstNaN returns the first NaN among vs, quieted, as the FMA routine's
// instructions return it: x86 hands back the first NaN source operand, in
// the instruction's operand order.
func firstNaN(vs ...float64) (float64, bool) {
	for _, v := range vs {
		if math.IsNaN(v) {
			return math.Float64frombits(quietBits(v)), true
		}
	}
	return 0, false
}

// sweepDefinition is one element of a swept tile: the chain over a's kcb
// values against lane x of panel jp, from init, then the mode's store
// against d (the element before) and b (its bias).
//
// fused is the FMA routine: math.FMA's single rounding, and where NaNs
// meet, the one x86 returns for the routine's operand roles: A, then B,
// then the accumulator in the multiply-add; d before the tile in the add;
// the tile before the bias. Otherwise the chain rounds the product, then the sum,
// in Go arithmetic, and exact is false once two NaNs of different
// payloads met, since which one Go's operand order returns is not fixed.
func sweepDefinition(a, bpack []float64, kcb, jp, x int, init, d, b float64, mode int, fused bool) (v float64, exact bool) {
	add := func(x, y float64) float64 {
		if n, ok := firstNaN(x, y); ok && fused {
			return n
		}
		return x + y
	}
	acc, meet := init, false
	for p := 0; p < kcb; p++ {
		bv := bpack[jp*kcb*nr+p*nr+x]
		if fused {
			if n, ok := firstNaN(a[p], bv, acc); ok {
				acc = n
			} else {
				acc = math.FMA(a[p], bv, acc)
			}
			continue
		}
		prod := float64(a[p] * bv)
		meet = meet || nanMeet(a[p], bv) || nanMeet(prod, acc)
		acc += prod
	}
	switch mode {
	case storeAdd:
		return add(d, acc), !meet && (fused || !nanMeet(d, acc))
	case storeRowBias, storeColBias:
		return add(acc, b), !meet && (fused || !nanMeet(acc, b))
	}
	return acc, !meet
}

// plantNaNs overwrites about n random elements of v with NaNs of distinct
// payloads, quiet and signalling.
func plantNaNs(rng *rand.Rand, v []float64, n int) {
	for ; n > 0; n-- {
		payload := uint64(rng.Int63n(1<<50) + 1)
		if rng.Intn(2) == 0 {
			payload |= 1 << 51
		}
		v[rng.Intn(len(v))] = math.Float64frombits(0x7ff0000000000000 | payload)
	}
}

// sweepBody64 is one body of the f64 sweep, with tiles of up to rows
// rows; fused marks the assembly bodies, skip says why this host cannot
// run one ("" when it can).
type sweepBody64 struct {
	name  string
	run   func(d []float64, a *[mrA][]float64, bpack []float64, ld, kcb, ncb, rows, mode int, bias []float64)
	rows  int
	fused bool
	skip  string
}

// TestSweepMatchesDefinition runs one tile row of a block through each
// body of the f64 sweep — the portable panel loop and, on amd64, the AVX2
// and AVX-512 assembly — in every mode, for every row count up to the
// body's tile height (4, or 8 for AVX-512; fewer is an inner product's
// remainder tile, its missing A rows aliased to the last valid one), 1–5
// panels (an odd count gives the AVX-512 body a lone last panel) with a
// last panel 1–8 lanes wide, and k-blocks of 1, 2, 3, 10, 14, 27, 90 and
// 256. Operands, destination and bias mix signed zeros, infinities,
// subnormals, huge values and normals, with planted NaNs of distinct
// payloads; the packed panels' padding lanes hold data too, which no
// store may leak. Every tile element must equal its definition by
// Float64bits: math.FMA's chain for the assembly bodies, with x86's NaN
// rule for their operand roles, the rounded product-then-sum chain for
// the portable one, NaN payloads compared where only one can arrive. The
// AVX-512 body must equal the AVX2 body bit for bit (an 8-row tile against
// two 4-row AVX2 calls), and every destination element outside the tile,
// a remainder tile's missing rows included, must keep its bits.
func TestSweepMatchesDefinition(t *testing.T) {
	portable := sweepBody64{name: "go", run: func(d []float64, a *[mrA][]float64, bpack []float64, ld, kcb, ncb, rows, mode int, bias []float64) {
		sweepGo(d, a, bpack, ld, kcb, ncb, rows, mode, bias, false)
	}, rows: mr}
	fused := asmSweeps()
	for bi, body := range append([]sweepBody64{portable}, fused...) {
		t.Run(body.name, func(t *testing.T) {
			if body.skip != "" {
				t.Skip(body.skip)
			}
			var ref *sweepBody64 // the body this one must equal bit for bit
			if bi > 1 {
				ref = &fused[0]
			}
			checkSweep(t, body, ref)
		})
	}
}

func checkSweep(t *testing.T, body sweepBody64, ref *sweepBody64) {
	rng := rand.New(rand.NewSource(76))
	const i0, j0, below = 2, 3, 2 // the tile's row and column in dst; rows past it
	finite := func(n int) []float64 {
		out := edgeData(rng, n)
		for x, v := range out {
			if math.IsNaN(v) {
				out[x] = 0.75
			}
		}
		return out
	}
	exactNaNs, meets := 0, map[int]int{}
	for _, kcb := range []int{1, 2, 3, 10, 14, 27, 90, 256} {
		for panels := 1; panels <= 5; panels++ {
			for w := 1; w <= nr; w++ {
				ncb := (panels-1)*nr + w
				ld := j0 + ncb + 5
				bpack := finite(panels * kcb * nr)
				plantNaNs(rng, bpack, 2)
				a := finite(mrA * kcb)
				plantNaNs(rng, a, 2)
				for rows := 1; rows <= body.rows; rows++ {
					var ar [mrA][]float64
					for r := range ar {
						ri := min(r, rows-1)
						ar[r] = a[ri*kcb : (ri+1)*kcb]
					}
					for _, sm := range sweepModes {
						name := fmt.Sprintf("%s kcb=%d ncb=%d rows=%d", sm.name, kcb, ncb, rows)
						dst0 := finite((i0 + mrA + below) * ld)
						plantNaNs(rng, dst0[i0*ld:(i0+rows)*ld], 2)
						var bias []float64
						switch sm.mode {
						case storeRowBias:
							bias = finite(rows)
							plantNaNs(rng, bias, 1)
						case storeColBias:
							bias = finite(ncb)
							plantNaNs(rng, bias, 1)
						}
						got := append([]float64(nil), dst0...)
						body.run(got[i0*ld+j0:], &ar, bpack, ld, kcb, ncb, rows, sm.mode, bias)
						if ref != nil {
							want := append([]float64(nil), dst0...)
							for r0 := 0; r0 < rows; r0 += ref.rows {
								n, ra, rb := min(ref.rows, rows-r0), ar, bias
								for r := range ra {
									ra[r] = ar[r0+min(r, n-1)]
								}
								if sm.mode == storeRowBias {
									rb = bias[r0:]
								}
								ref.run(want[(i0+r0)*ld+j0:], &ra, bpack, ld, kcb, ncb, n, sm.mode, rb)
							}
							if e := firstDiff64(got, want); e >= 0 {
								t.Fatalf("%s: element %d is %#x, the %s body wrote %#x", name, e,
									math.Float64bits(got[e]), ref.name, math.Float64bits(want[e]))
							}
						}
						for e := range dst0 {
							r, c := e/ld-i0, e%ld-j0
							if r < 0 || r >= rows || c < 0 || c >= ncb {
								if math.Float64bits(got[e]) != math.Float64bits(dst0[e]) {
									t.Fatalf("%s: element %d outside the tile was written", name, e)
								}
								continue
							}
							d, init, b := dst0[e], 0.0, 0.0
							switch sm.mode {
							case storeChain:
								init = d
							case storeRowBias:
								b = bias[r]
							case storeColBias:
								b = bias[c]
							}
							want, exact := sweepDefinition(ar[r], bpack, kcb, c/nr, c%nr, init, d, b, sm.mode, body.fused)
							if exact && math.Float64bits(got[e]) != math.Float64bits(want) ||
								!exact && !math.IsNaN(got[e]) {
								t.Fatalf("%s: row %d column %d is %v (%#x), want %v (%#x)",
									name, r, c, got[e], math.Float64bits(got[e]), want, math.Float64bits(want))
							}
							if exact && math.IsNaN(want) {
								exactNaNs++
								o := b // the store's second operand
								if sm.mode == storeAdd {
									o = d
								}
								if sm.mode != storeSet && sm.mode != storeChain {
									chain, _ := sweepDefinition(ar[r], bpack, kcb, c/nr, c%nr, 0, 0, 0, storeSet, body.fused)
									if nanMeet(chain, o) {
										meets[sm.mode]++
									}
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
	if body.fused && (meets[storeAdd] == 0 || meets[storeRowBias] == 0 || meets[storeColBias] == 0) {
		t.Fatalf("too few NaN tiles met a NaN operand of another payload in a store: %v", meets)
	}
}
