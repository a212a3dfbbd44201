package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// topKSelectSorted is the definition TopKSelect must reproduce: order
// every index by (|v| descending, index ascending) with a comparison sort,
// keep the first k, return them ascending. It is the selection this
// package shipped before the radix select and stays as the test oracle.
// Its comparator is a consistent order only without NaN.
func topKSelectSorted(v []float64, k int) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	if k >= len(v) {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool {
		ma, mb := math.Abs(v[idx[a]]), math.Abs(v[idx[b]])
		if ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	idx = idx[:k]
	sort.Ints(idx)
	return idx
}

// checkSupport verifies idx against the definition directly, NaN or not,
// in O(n): k ascending indices, no unselected key above a selected one,
// and at the threshold key the selected indices all precede the
// unselected ones.
func checkSupport(v []float64, k int, idx []int) error {
	if want := max(min(k, len(v)), 0); len(idx) != want {
		return fmt.Errorf("%d indices, want %d", len(idx), want)
	}
	if len(idx) == 0 {
		return nil
	}
	sel := make([]bool, len(v))
	thr := uint64(math.MaxUint64)
	for j, i := range idx {
		if i < 0 || i >= len(v) || j > 0 && i <= idx[j-1] {
			return fmt.Errorf("indices not strictly ascending in range: %v", idx)
		}
		sel[i] = true
		thr = min(thr, magKey(v[i]))
	}
	lastSel, firstUnsel := -1, len(v)
	for i, x := range v {
		key := magKey(x)
		switch {
		case !sel[i] && key > thr:
			return fmt.Errorf("index %d (key %#x) left out above threshold %#x", i, key, thr)
		case sel[i] && key == thr:
			lastSel = i
		case !sel[i] && key == thr && firstUnsel == len(v):
			firstUnsel = i
		}
	}
	if lastSel > firstUnsel {
		return fmt.Errorf("tie at %#x: took index %d but skipped %d", thr, lastSel, firstUnsel)
	}
	return nil
}

func hasNaN(v []float64) bool {
	for _, x := range v {
		if x != x {
			return true
		}
	}
	return false
}

func checkAgainstOracle(t testing.TB, name string, v []float64, k int) {
	t.Helper()
	got := TopKSelect(v, k)
	if err := checkSupport(v, k, got); err != nil {
		t.Fatalf("%s n=%d k=%d: %v", name, len(v), k, err)
	}
	if k < 0 || hasNaN(v) {
		return
	}
	if want := topKSelectSorted(v, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s n=%d k=%d: radix select differs from the sorted definition\n got %v\nwant %v",
			name, len(v), k, got, want)
	}
}

// selectFamilies are the input shapes the differential test sweeps: the
// realistic one plus every degenerate shape that stresses a radix level
// (all keys in one bucket, ties across the threshold, keys that differ
// only in the last bits, keys at both ends of the exponent range).
var selectFamilies = []struct {
	name string
	gen  func(r *rand.Rand, v []float64)
}{
	{"gaussian", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = r.NormFloat64() * 1e-2
		}
	}},
	{"all-equal", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = -0.375
		}
	}},
	{"all-zero", func(r *rand.Rand, v []float64) {}},
	{"two-valued", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = []float64{1.5, -2.5}[r.Intn(2)]
		}
	}},
	{"heavy-tie", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = float64(r.Intn(5)-2) * 0.25
		}
	}},
	{"last-bits", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = math.Float64frombits(math.Float64bits(1) + uint64(r.Intn(7)))
		}
	}},
	{"subnormal", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = math.Float64frombits(uint64(r.Intn(1<<20))) * float64(1-2*r.Intn(2))
		}
	}},
	{"signed-zero", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = []float64{0, math.Copysign(0, -1), 1e-300, -1e-300}[r.Intn(4)]
		}
	}},
	{"inf", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, r.NormFloat64()}[r.Intn(4)]
		}
	}},
	{"wide-exponent", func(r *rand.Rand, v []float64) {
		for i := range v {
			v[i] = math.Ldexp(r.NormFloat64(), r.Intn(2000)-1000)
		}
	}},
}

// TestTopKSelectMatchesSortedDefinition: the radix select returns the
// sorted definition's index set, ties included, on every input family,
// for n across [1, 1<<16] and k at and around every boundary.
func TestTopKSelectMatchesSortedDefinition(t *testing.T) {
	sizes := []int{1, 2, 3, 17, 100, 4095, 4097, 1 << 16}
	if testing.Short() {
		sizes = []int{1, 2, 3, 17, 100, 4097}
	}
	r := rand.New(rand.NewSource(21))
	for _, fam := range selectFamilies {
		for _, n := range sizes {
			v := make([]float64, n)
			fam.gen(r, v)
			for _, k := range []int{1, 2, n / 100, n / 2, n - 1, n, n + 3} {
				checkAgainstOracle(t, fam.name, v, k)
			}
		}
	}
}

// fuzzPalette maps fuzz bytes onto values that collide, tie and sit at the
// edges of the key space far more often than random bit patterns would.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, -1.5, 0.25, 1e-2, -1e-2,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(math.Float64bits(1) + 1), math.Float64frombits(math.Float64bits(1) + 2),
}

// FuzzTopKSelect: whatever the vector (palette values and raw bit patterns
// mixed, NaN included) and whatever k, the support satisfies the
// definition, and equals the sort oracle's whenever that oracle is defined.
func FuzzTopKSelect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 3)
	f.Add([]byte{16, 16, 14, 15, 2, 2, 2}, 2)
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 0xff, 8, 7, 6, 5, 4, 3, 2, 1}, 1)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		var v []float64
		for len(data) > 0 && len(v) < 1<<16 {
			if data[0] == 0xff && len(data) >= 9 {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data[1:9])))
				data = data[9:]
				continue
			}
			v = append(v, fuzzPalette[int(data[0])%len(fuzzPalette)])
			data = data[1:]
		}
		m := len(v) + 3
		k = (k%m+m)%m - 1 // in [-1, len(v)+1]
		checkAgainstOracle(t, "fuzz", v, k)
	})
}

// TestTopKSelectNonFinite pins what selection does with values a
// comparison sort had no consistent answer for: keys order by magnitude
// bit pattern, so NaN outranks ±Inf outranks every finite value, ±0 tie,
// and every tie goes to the lower index.
func TestTopKSelectNonFinite(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		v    []float64
		k    int
		want []int
	}{
		{"nan first", []float64{1, nan, 2, nan}, 2, []int{1, 3}},
		{"nan tie to lower index", []float64{nan, 5, nan, nan}, 2, []int{0, 2}},
		{"nan then largest finite", []float64{1, nan, 2, 3}, 2, []int{1, 3}},
		{"nan above inf", []float64{inf, 1, nan, -inf}, 1, []int{2}},
		{"nan, then inf by index", []float64{inf, 1, nan, -inf}, 2, []int{0, 2}},
		{"negative nan is a nan", []float64{7, math.Copysign(nan, -1), 8}, 1, []int{1}},
		{"inf above max float", []float64{math.MaxFloat64, -inf, 3, inf}, 2, []int{1, 3}},
		{"inf tie to lower index", []float64{-inf, inf, inf}, 2, []int{0, 1}},
		{"zeros tie regardless of sign", []float64{negZero, 0, negZero, 0}, 2, []int{0, 1}},
		{"smallest subnormal beats zero", []float64{0, negZero, -math.SmallestNonzeroFloat64, 0}, 1, []int{2}},
		{"zero fills after nonzero", []float64{negZero, 0, 4, 0}, 3, []int{0, 1, 2}},
	} {
		if got := TopKSelect(tc.v, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: TopKSelect(%v, %d) = %v, want %v", tc.name, tc.v, tc.k, got, tc.want)
		}
	}
	// The quantiser and the wire see the NaN: it is in the delta, not
	// left behind in the residual.
	d, res, err := Config{Mode: TopK, TopKFrac: 0.25}.CompressEF([]float64{1, nan, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Indices, []int{1}) || !math.IsNaN(d.Values[0]) {
		t.Fatalf("NaN coordinate not transmitted: %+v", d)
	}
	if res[0] != 1 || res[2] != 2 || res[3] != 3 {
		t.Fatalf("finite coordinates should wait in the residual, got %v", res)
	}
}

// compressEFSorted is CompressEF as this package shipped it before the
// in-place routine — dense v, sort-based support, dense decode, dense
// subtraction — kept as the bit-level reference for the chained test.
func compressEFSorted(c Config, delta, residual []float64) (*Delta, []float64) {
	c = c.WithDefaults()
	v := make([]float64, len(delta))
	copy(v, delta)
	if residual != nil {
		for i, r := range residual {
			v[i] += r
		}
	}
	d := &Delta{Len: len(v)}
	body := v
	if c.Mode.Sparse() {
		d.Indices = topKSelectSorted(v, c.K(len(v)))
		body = make([]float64, len(d.Indices))
		for j, i := range d.Indices {
			body[j] = v[i]
		}
	}
	if bits := c.Mode.Bits(); bits > 0 {
		z, _ := Quantizer{Bits: bits}.Encode(body)
		d.Bits, d.Min, d.Max, d.Codes = bits, z.Min, z.Max, z.Codes
	} else {
		d.Values = append([]float64(nil), body...)
	}
	dec := d.Decode()
	for i := range v {
		v[i] -= dec[i]
	}
	return d, v
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameDelta(a, b *Delta) bool {
	return a.Len == b.Len && a.Bits == b.Bits &&
		(a.Indices == nil) == (b.Indices == nil) && reflect.DeepEqual(a.Indices, b.Indices) &&
		sameFloatBits(a.Values, b.Values) && reflect.DeepEqual(a.Codes, b.Codes) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestInPlaceEFBitIdenticalToReference chains 20 rounds per mode, from a
// nil and from a non-nil residual, through the reference, CompressEF and
// CompressInPlace: delta fields and residual must agree bit for bit every
// round. The inputs carry exact ties, ±0 deltas and repeated values so
// signed zeros and tie-breaks are exercised, not just Gaussian noise.
func TestInPlaceEFBitIdenticalToReference(t *testing.T) {
	const n, rounds = 997, 20
	for _, mode := range []Mode{None, TopK, Q8, Q16, TopKQ8, TopKQ16} {
		for _, startNil := range []bool{true, false} {
			cfg := Config{Mode: mode, TopKFrac: 0.03}
			r := rand.New(rand.NewSource(int64(31 + mode)))
			var ref, pure, inPlace []float64
			if !startNil {
				ref = randVec(r, n)
				ref[5], ref[6] = 0, math.Copysign(0, -1)
				pure = append([]float64(nil), ref...)
				inPlace = append([]float64(nil), ref...)
			}
			global := randVec(r, n)
			for round := 0; round < rounds; round++ {
				params := make([]float64, n)
				delta := make([]float64, n)
				for i := range params {
					params[i] = global[i] + math.Round(r.NormFloat64()*4)/4
					if i%7 == 0 {
						params[i] = global[i] // a +0 delta
					}
					delta[i] = params[i] - global[i]
				}
				params[3], global[3] = math.Copysign(0, -1), 0 // a −0 delta
				delta[3] = params[3] - global[3]

				wantD, wantRes := compressEFSorted(cfg, delta, ref)
				ref = wantRes

				gotD, gotRes, err := cfg.CompressEF(delta, pure)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDelta(gotD, wantD) || !sameFloatBits(gotRes, wantRes) {
					t.Fatalf("%s startNil=%v round %d: CompressEF differs from the reference", mode, startNil, round)
				}
				pure = gotRes

				ipD, ipRes, err := cfg.CompressInPlace(params, global, inPlace)
				if err != nil {
					t.Fatal(err)
				}
				if inPlace != nil && &ipRes[0] != &inPlace[0] {
					t.Fatalf("%s: CompressInPlace moved a caller-owned residual", mode)
				}
				if !sameDelta(ipD, wantD) || !sameFloatBits(ipRes, wantRes) {
					t.Fatalf("%s startNil=%v round %d: CompressInPlace differs from the reference", mode, startNil, round)
				}
				inPlace = ipRes
			}
		}
	}
}

// TestCompressEFLeavesInputsUntouched guards the callers that replay
// CompressEF on the same delta and residual (the benchmark does).
func TestCompressEFLeavesInputsUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, mode := range []Mode{None, TopK, Q8, TopKQ8} {
		delta, residual := randVec(r, 300), randVec(r, 300)
		delta0 := append([]float64(nil), delta...)
		residual0 := append([]float64(nil), residual...)
		cfg := Config{Mode: mode, TopKFrac: 0.05}
		first, res1, err := cfg.CompressEF(delta, residual)
		if err != nil {
			t.Fatal(err)
		}
		second, res2, _ := cfg.CompressEF(delta, residual)
		if !sameFloatBits(delta, delta0) || !sameFloatBits(residual, residual0) {
			t.Fatalf("%s: CompressEF modified an input", mode)
		}
		if !sameDelta(first, second) || !sameFloatBits(res1, res2) || &res1[0] == &res2[0] {
			t.Fatalf("%s: replaying CompressEF on the same inputs is not repeatable", mode)
		}
	}
}

// TestCompressInPlaceRejectsBeforeMutating: a call that fails leaves the
// caller's residual as it was.
func TestCompressInPlaceRejectsBeforeMutating(t *testing.T) {
	res := []float64{1, 2, 3}
	for _, tc := range []struct {
		cfg            Config
		params, global []float64
	}{
		{Config{Mode: TopK}, []float64{1, 2}, []float64{1, 2, 3}},
		{Config{Mode: TopK}, []float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}},
		{Config{Mode: modeCount}, []float64{1, 2, 3}, []float64{1, 2, 3}},
	} {
		if _, _, err := tc.cfg.CompressInPlace(tc.params, tc.global, res); err == nil {
			t.Fatalf("%+v accepted", tc)
		}
		if !reflect.DeepEqual(res, []float64{1, 2, 3}) {
			t.Fatalf("failed call mutated the residual: %v", res)
		}
	}
}

// benchDim is the update length of the repository benchmark's fed_*
// workloads (cip_vgg_f64's parameter count).
const benchDim = 719364

// TestCompressInPlaceSteadyStateAllocation: at the benchmark's shape a
// warmed topk8 step allocates the k-sized outputs and nothing O(n).
func TestCompressInPlaceSteadyStateAllocation(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	global, params := randVec(r, benchDim), randVec(r, benchDim)
	cfg := Config{Mode: TopKQ8, TopKFrac: 0.01}
	_, residual, err := cfg.CompressInPlace(params, global, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mallocs := testing.AllocsPerRun(runs, func() {
		if _, _, err := cfg.CompressInPlace(params, global, residual); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("CompressInPlace at n=%d: %.0f objects, %d B per call", benchDim, mallocs, perCall)
	if mallocs > 8 || perCall >= 256<<10 {
		t.Fatalf("CompressInPlace allocates %.0f objects / %d B per call at n=%d; want <= 8 / < 256 KiB",
			mallocs, perCall, benchDim)
	}
}

func BenchmarkTopKSelect(b *testing.B) {
	v := randVec(rand.New(rand.NewSource(61)), benchDim)
	k := Config{Mode: TopKQ8, TopKFrac: 0.01}.K(benchDim)
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopKSelect(v, k)
		}
	})
	b.Run("sorted-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topKSelectSorted(v, k)
		}
	})
}
