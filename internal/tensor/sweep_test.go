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

// TestSweepMatchesDefinition runs one tile row of a block through the
// dispatched sweep and through its portable loop, in every mode, for
// 1–4 valid rows (fewer is an inner product's aliased remainder tile), 1,
// 2 and 5 panels with a last panel 1–8 lanes wide, and k-blocks of 1, 3,
// 10, 14, 90 and 256. Operands, destination and bias mix signed zeros,
// infinities, subnormals, huge values and normals, with a few planted NaNs
// of distinct payloads; the packed panels' padding lanes hold data too,
// which no store may leak. The dispatched sweep must equal math.FMA's
// chain per element by Float64bits (the rounded product-then-sum chain on
// a build without the FMA routine), the portable loop must equal the
// rounded chain, and every destination element outside the tile, a
// remainder tile's missing rows included, must keep its bits. NaN payloads
// are compared too: for the FMA routine by x86's operand-order rule, for
// Go arithmetic only where a single payload can arrive (elsewhere only
// NaN-ness).
func TestSweepMatchesDefinition(t *testing.T) {
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
	exactNaNs := 0
	for _, kcb := range []int{1, 3, 10, 14, 90, 256} {
		for _, panels := range []int{1, 2, 5} {
			for w := 1; w <= nr; w++ {
				ncb := (panels-1)*nr + w
				ld := j0 + ncb + 5
				bpack := finite(panels * kcb * nr)
				plantNaNs(rng, bpack, 2)
				a := finite(mr * kcb)
				plantNaNs(rng, a, 2)
				for rows := 1; rows <= mr; rows++ {
					var ar [mr][]float64
					for r := range ar {
						ri := min(r, rows-1)
						ar[r] = a[ri*kcb : (ri+1)*kcb]
					}
					for _, sm := range sweepModes {
						name := fmt.Sprintf("%s kcb=%d ncb=%d rows=%d", sm.name, kcb, ncb, rows)
						dst0 := finite((i0 + mr + below) * ld)
						plantNaNs(rng, dst0[i0*ld:(i0+rows)*ld], 1)
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
						sweep(got[i0*ld+j0:], &ar, bpack, ld, kcb, ncb, rows, sm.mode, bias)
						port := append([]float64(nil), dst0...)
						sweepGo(port[i0*ld+j0:], &ar, bpack, ld, kcb, ncb, rows, sm.mode, bias)

						for e := range dst0 {
							r, c := e/ld-i0, e%ld-j0
							if r < 0 || r >= rows || c < 0 || c >= ncb {
								if math.Float64bits(got[e]) != math.Float64bits(dst0[e]) ||
									math.Float64bits(port[e]) != math.Float64bits(dst0[e]) {
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
							for _, side := range []struct {
								name  string
								v     float64
								fused bool
							}{{"dispatched", got[e], hasFMAKernel}, {"portable", port[e], false}} {
								want, exact := sweepDefinition(ar[r], bpack, kcb, c/nr, c%nr, init, d, b, sm.mode, side.fused)
								if exact && math.Float64bits(side.v) != math.Float64bits(want) ||
									!exact && !math.IsNaN(side.v) {
									t.Fatalf("%s: %s sweep row %d column %d is %v (%#x), want %v (%#x)",
										name, side.name, r, c, side.v, math.Float64bits(side.v), want, math.Float64bits(want))
								}
								if exact && math.IsNaN(want) {
									exactNaNs++
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
}
