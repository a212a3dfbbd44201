package robust

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, dim int) [][]float64 {
	m := make([][]float64, rows)
	for r := range m {
		m[r] = make([]float64, dim)
		for i := range m[r] {
			m[r][i] = rng.NormFloat64() * 10
		}
	}
	return m
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func aggregators() []Aggregator {
	return []Aggregator{
		Mean{},
		Median{},
		TrimmedMean{Frac: 0.25},
		ClippedMean{MaxNorm: 5},
	}
}

// Property: every rule is permutation-invariant — shuffling the client rows
// must not change the aggregate. The selection rules (median, trimmed mean)
// sort per coordinate, so on inputs without signed zeros (these are
// Gaussian) they owe bit-identical output; a column holding both −0 and +0
// can flip the median's zero sign under permutation, as where tied zeros
// land in the sort depends on the row order. The summing rules (mean,
// clipped mean) reassociate the addition under permutation and owe
// equality only up to last-ulp rounding.
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, agg := range aggregators() {
		bitExact := false
		switch agg.(type) {
		case Median, TrimmedMean:
			bitExact = true
		}
		t.Run(agg.Name(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rows := 3 + rng.Intn(10)
				dim := 1 + rng.Intn(40)
				center := randVec(rng, dim)
				params := randMatrix(rng, rows, dim)
				base, _, err := agg.Aggregate(center, params, nil)
				if err != nil {
					t.Fatalf("aggregate: %v", err)
				}
				perm := append([][]float64(nil), params...)
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				got, _, err := agg.Aggregate(center, perm, nil)
				if err != nil {
					t.Fatalf("permuted aggregate: %v", err)
				}
				for i := range base {
					if bitExact && math.Float64bits(base[i]) != math.Float64bits(got[i]) {
						t.Fatalf("trial %d: coordinate %d changed under permutation: %v vs %v",
							trial, i, base[i], got[i])
					}
					if !bitExact && math.Abs(base[i]-got[i]) > 1e-9*(1+math.Abs(base[i])) {
						t.Fatalf("trial %d: coordinate %d moved beyond rounding under permutation: %v vs %v",
							trial, i, base[i], got[i])
					}
				}
			}
		})
	}
}

// Property: a trim fraction of 0 reduces the trimmed mean to the unweighted
// mean (up to last-ulp rounding: trimmed sums in sorted order, mean in row
// order).
func TestTrimZeroReducesToMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows := 2 + rng.Intn(12)
		dim := 1 + rng.Intn(50)
		center := randVec(rng, dim)
		params := randMatrix(rng, rows, dim)
		want, _, err := Mean{}.Aggregate(center, params, nil)
		if err != nil {
			t.Fatalf("mean: %v", err)
		}
		got, rep, err := TrimmedMean{Frac: 0}.Aggregate(center, params, nil)
		if err != nil {
			t.Fatalf("trimmed(0): %v", err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: trimmed(0) != mean at coordinate %d: %v vs %v",
					trial, i, want[i], got[i])
			}
		}
		if rep.Trimmed != 0 || rep.Contributors != rows {
			t.Fatalf("trimmed(0) report = %+v, want 0 trimmed, %d contributors", rep, rows)
		}
	}
}

// Determinism contract: the coordinate-parallel rules are bit-identical
// at any worker count.
func TestWorkerCountDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 5000 // large enough that parallelCoords actually splits
	center := randVec(rng, dim)
	params := randMatrix(rng, 9, dim)
	params[2][17] = math.NaN() // exercise the skip path too
	params[5][4000] = math.Inf(1)
	build := func(workers int) []Aggregator {
		return []Aggregator{
			Median{Workers: workers},
			TrimmedMean{Frac: 0.2, Workers: workers},
		}
	}
	base := build(1)
	for _, workers := range []int{2, 3, 8, 64} {
		for k, agg := range build(workers) {
			want, wantRep, err := base[k].Aggregate(center, params, nil)
			if err != nil {
				t.Fatalf("%s serial: %v", agg.Name(), err)
			}
			got, gotRep, err := agg.Aggregate(center, params, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", agg.Name(), workers, err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s: workers=%d differs at coordinate %d: %v vs %v",
						agg.Name(), workers, i, want[i], got[i])
				}
			}
			if wantRep != gotRep {
				t.Fatalf("%s: workers=%d report %+v, serial %+v", agg.Name(), workers, gotRep, wantRep)
			}
		}
	}
}

// A minority of arbitrarily poisoned rows must not move the median beyond
// the honest value range, while the plain mean is dragged out of it.
func TestMedianBreakdownResistance(t *testing.T) {
	honest := [][]float64{{1, 2}, {1.1, 2.1}, {0.9, 1.9}, {1.05, 2.05}, {0.95, 1.95}}
	poisoned := append(append([][]float64{}, honest...), []float64{1e12, -1e12}, []float64{1e12, -1e12})
	med, _, err := Median{}.Aggregate(nil, poisoned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if med[0] < 0.9 || med[0] > 1.1 || med[1] < 1.9 || med[1] > 2.1 {
		t.Fatalf("median %v left the honest range under 2/7 poisoning", med)
	}
	mean, _, err := Mean{}.Aggregate(nil, poisoned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] < 1e10 {
		t.Fatalf("sanity: plain mean %v should have been dragged by the poison", mean)
	}
	tm, _, err := TrimmedMean{Frac: 0.3}.Aggregate(nil, poisoned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tm[0] < 0.9 || tm[0] > 1.1 {
		t.Fatalf("trimmed mean %v left the honest range under 2/7 poisoning", tm)
	}
}

// The clipped mean bounds every client's pull at MaxNorm/n from the center.
func TestClippedMeanBound(t *testing.T) {
	center := []float64{0, 0, 0}
	params := [][]float64{
		{0.1, 0.1, 0.1},
		{-0.1, 0.05, 0},
		{1e9, 1e9, 1e9}, // attacker under no norm validation
	}
	maxNorm := 1.0
	out, rep, err := ClippedMean{MaxNorm: maxNorm}.Aggregate(center, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ss float64
	for i, v := range out {
		d := v - center[i]
		ss += d * d
	}
	if dist := math.Sqrt(ss); dist > maxNorm {
		t.Fatalf("clipped aggregate moved %.3g from center, bound is %g", dist, maxNorm)
	}
	if rep.Clipped != 1 {
		t.Fatalf("report.Clipped = %d, want 1", rep.Clipped)
	}
}

// Non-finite inputs are skipped per coordinate; the aggregate itself must
// stay finite, falling back to the center when a coordinate has no finite
// contribution at all.
func TestNonFiniteHandling(t *testing.T) {
	center := []float64{5, 6, 7}
	params := [][]float64{
		{math.NaN(), 1, math.Inf(1)},
		{math.NaN(), 2, math.Inf(-1)},
	}
	for _, agg := range aggregators() {
		out, _, err := agg.Aggregate(center, params, nil)
		if err != nil {
			t.Fatalf("%s: %v", agg.Name(), err)
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite output %v at coordinate %d", agg.Name(), v, i)
			}
		}
		if _, isClipped := agg.(ClippedMean); !isClipped {
			if out[0] != 5 {
				t.Fatalf("%s: coordinate 0 should fall back to center 5, got %v", agg.Name(), out[0])
			}
			if out[1] != 1.5 {
				t.Fatalf("%s: coordinate 1 should average to 1.5, got %v", agg.Name(), out[1])
			}
		}
	}
}

func TestShapeAndEmptyErrors(t *testing.T) {
	for _, agg := range aggregators() {
		if _, _, err := agg.Aggregate(nil, nil, nil); err == nil {
			t.Fatalf("%s: no error on zero updates", agg.Name())
		}
		if _, _, err := agg.Aggregate([]float64{0, 0}, [][]float64{{1, 2}, {3}}, nil); err == nil {
			t.Fatalf("%s: no error on ragged rows", agg.Name())
		}
	}
}

func TestTrimmedContributors(t *testing.T) {
	tm := TrimmedMean{Frac: 0.25}
	if got := tm.Contributors(12); got != 6 {
		t.Fatalf("trimmed(0.25).Contributors(12) = %d, want 6", got)
	}
	if got := tm.Contributors(3); got != 3 {
		t.Fatalf("trimmed(0.25).Contributors(3) = %d, want 3 (⌊0.25·3⌋ = 0)", got)
	}
	// Degenerate inputs never trim everything away.
	aggressive := TrimmedMean{Frac: 0.49}
	if got := aggressive.Contributors(2); got < 1 {
		t.Fatalf("trimmed(0.49).Contributors(2) = %d, want ≥ 1", got)
	}
}

func TestDistances(t *testing.T) {
	agg := []float64{0, 0}
	d := Distances(agg, [][]float64{{3, 4}, {0, 0}, {math.NaN(), 1}})
	if d[0] != 5 || d[1] != 0 {
		t.Fatalf("distances = %v, want [5 0 +Inf]", d)
	}
	if !math.IsInf(d[2], 1) {
		t.Fatalf("poisoned row distance = %v, want +Inf", d[2])
	}
}

func TestFactory(t *testing.T) {
	if a, err := New("", 0, 0); err != nil || a != nil {
		t.Fatalf("New(\"\") = %v, %v; want nil aggregator (legacy FedAvg)", a, err)
	}
	if a, err := New("fedavg", 0, 0); err != nil || a != nil {
		t.Fatalf("New(fedavg) = %v, %v; want nil aggregator", a, err)
	}
	for _, name := range []string{"mean", "median"} {
		a, err := New(name, 0, 0)
		if err != nil || a == nil {
			t.Fatalf("New(%s) = %v, %v", name, a, err)
		}
	}
	if a, err := New("trimmed", 0.2, 0); err != nil || a.Name() != "trimmed(0.2)" {
		t.Fatalf("New(trimmed, 0.2) = %v, %v", a, err)
	}
	if _, err := New("trimmed", 0, 0); err == nil {
		t.Fatal("New(trimmed, 0) should reject a zero trim fraction")
	}
	if _, err := New("trimmed", 0.5, 0); err == nil {
		t.Fatal("New(trimmed, 0.5) should reject f ≥ 0.5")
	}
	if a, err := New("clipped", 0, 2.5); err != nil || a.Name() != "clipped(2.5)" {
		t.Fatalf("New(clipped, 2.5) = %v, %v", a, err)
	}
	if _, err := New("clipped", 0, 0); err == nil {
		t.Fatal("New(clipped, 0) should reject a zero norm bound")
	}
	if _, err := New("krum", 0, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown aggregator") {
		t.Fatalf("New(krum) error = %v, want unknown-aggregator", err)
	}
}
