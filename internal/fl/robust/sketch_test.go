package robust

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func sketchRows(n, dim int, rng *rand.Rand) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// Adding rows in any order, through any tree of merges, must retain the
// same rows in the same order: the kept set is "the K smallest keys of the
// union", which is shape- and order-independent.
func TestSketchMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, dim, capRows = 40, 5, 16
	rows := sketchRows(n, dim, rng)

	flat := NewSketch(capRows)
	for i, r := range rows {
		flat.Add(KeyClient(i), r)
	}

	// A lopsided two-level tree, added in reverse order.
	left, right := NewSketch(capRows), NewSketch(capRows)
	for i := n - 1; i >= 0; i-- {
		dst := left
		if i%3 == 0 {
			dst = right
		}
		dst.Add(KeyClient(i), rows[i])
	}
	merged := NewSketch(capRows)
	if err := merged.Merge(right); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(left); err != nil {
		t.Fatal(err)
	}

	if merged.Rows != flat.Rows || merged.Rows != n {
		t.Fatalf("rows: merged %d flat %d want %d", merged.Rows, flat.Rows, n)
	}
	if len(merged.Keys) != len(flat.Keys) {
		t.Fatalf("retained: merged %d flat %d", len(merged.Keys), len(flat.Keys))
	}
	for i := range merged.Keys {
		if merged.Keys[i] != flat.Keys[i] {
			t.Fatalf("key %d: merged %d flat %d", i, merged.Keys[i], flat.Keys[i])
		}
		for j := range merged.Vals[i] {
			if merged.Vals[i][j] != flat.Vals[i][j] {
				t.Fatalf("row %d differs between merge orders", i)
			}
		}
	}
}

// Insert keeps the caller's rows themselves and hands back exactly the
// ones it lets go — each inserted row ends up either retained or returned,
// once — while Add, a copy followed by Insert, retains the same rows
// without aliasing any input.
func TestSketchInsertKeepsRowsAndReturnsDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim, capRows = 40, 3, 8
	rows := sketchRows(n, dim, rng)
	ins, add := NewSketch(capRows), NewSketch(capRows)
	returned := map[*float64]int{}
	rejected, evicted := 0, 0
	for _, i := range rng.Perm(n) {
		add.Add(KeyClient(i), rows[i])
		d := ins.Insert(KeyClient(i), rows[i])
		switch {
		case d == nil:
		case &d[0] == &rows[i][0]:
			rejected++
		default:
			evicted++
		}
		if d != nil {
			returned[&d[0]]++
		}
	}
	if rejected == 0 || evicted == 0 {
		t.Fatalf("want both rejections and evictions, got %d and %d", rejected, evicted)
	}
	if ins.Rows != n || add.Rows != n || !reflect.DeepEqual(ins.Keys, add.Keys) || !reflect.DeepEqual(ins.Vals, add.Vals) {
		t.Fatal("Insert and Add retained different rows")
	}
	for i, row := range ins.Vals {
		returned[&row[0]]++
		if &add.Vals[i][0] == &row[0] {
			t.Fatalf("Add retained caller row %d itself", i)
		}
	}
	for i, row := range rows {
		if c := returned[&row[0]]; c != 1 {
			t.Fatalf("row %d is retained or returned %d times, want once", i, c)
		}
	}
}

// mergeLeaves spreads rows over `leaves` client-facing sketches and merges
// them into one root sketch — the algebra a depth-2 tree runs per round.
func mergeLeaves(t *testing.T, rows [][]float64, leaves, capRows int) *Sketch {
	t.Helper()
	root := NewSketch(capRows)
	per := (len(rows) + leaves - 1) / leaves
	for lo := 0; lo < len(rows); lo += per {
		leaf := NewSketch(capRows)
		for i := lo; i < min(lo+per, len(rows)); i++ {
			leaf.Add(KeyClient(i), rows[i])
		}
		if err := root.Merge(leaf); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// singleSketch adds every row to one sketch directly.
func singleSketch(rows [][]float64, capRows int) *Sketch {
	sk := NewSketch(capRows)
	for i, r := range rows {
		sk.Add(KeyClient(i), r)
	}
	return sk
}

// Below the cap the sketch holds every row — whether the rows were added
// to one sketch or merged up from eight leaves — so Median and TrimmedMean
// over the retained rows are bit-identical to flat aggregation: the rules
// sort each coordinate's column, so row order is immaterial.
func TestSketchExactBelowCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim, capRows = 24, 7, 64
	rows := sketchRows(n, dim, rng)
	center := make([]float64, dim)

	for _, in := range []struct {
		name string
		sk   *Sketch
	}{
		{"one sketch", singleSketch(rows, capRows)},
		{"8 leaves", mergeLeaves(t, rows, 8, capRows)},
	} {
		if !in.sk.Exact() {
			t.Fatalf("%s: sketch with %d rows under cap %d is not exact", in.name, n, capRows)
		}
		for _, rule := range []Aggregator{Median{}, TrimmedMean{Frac: 0.2}, ClippedMean{MaxNorm: 1}} {
			flat, _, err := rule.Aggregate(center, rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			tree, _, err := rule.Aggregate(center, in.sk.RowsView(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// The sort-based rules see the same per-coordinate multiset, so they
			// are bit-identical; ClippedMean sums in row order, and the sketch's
			// key order differs from roster order, so it is only reassociated.
			_, sums := rule.(ClippedMean)
			for i := range flat {
				if flat[i] == tree[i] {
					continue
				}
				if sums && math.Abs(flat[i]-tree[i]) <= 1e-12*(1+math.Abs(flat[i])) {
					continue
				}
				t.Fatalf("%s, %s: coord %d: flat %v tree %v (want identical below cap)",
					in.name, rule.Name(), i, flat[i], tree[i])
			}
		}
	}
}

// orderStat returns the empirical q-quantile of sorted (ascending) vals,
// widened outward to the enclosing order statistic so an envelope never
// under-covers from rank rounding.
func orderStat(sorted []float64, q float64, up bool) float64 {
	r := q * float64(len(sorted)-1)
	if up {
		r = math.Ceil(r)
	}
	return sorted[min(max(int(r), 0), len(sorted)-1)]
}

// Above the cap the retained rows are a uniform subsample, so by DKW each
// sketch quantile is within rank error ε of the population's. Every
// coordinate must sit inside its rule's envelope, for one saturated sketch
// and for eight saturated leaves merged into a root:
//   - Median: between the population's (½−ε)- and (½+ε)-order statistics;
//   - TrimmedMean{f}: within ε/(1−2f) of the kept window's width
//     (Q(1−f) − Q(f)) of the flat trimmed mean — the largest shift that
//     replacing an ε rank-fraction of the kept mass can induce.
//
// The rows are heavy-tailed (5% gross outliers), the population the robust
// rules exist for, and the subsample must actually move the estimate.
func TestSketchSampledWithinRankBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, dim, capRows, delta = 4000, 8, 256, 0.01
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = 0.1*float64(j) + rng.NormFloat64()
			if rng.Float64() < 0.05 {
				rows[i][j] += 50 * (rng.Float64()*2 - 1)
			}
		}
	}
	center := make([]float64, dim)
	eps := SampleRankError(capRows, delta)
	cols := make([][]float64, dim)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i, r := range rows {
			cols[j][i] = r[j]
		}
		sort.Float64s(cols[j])
	}

	sketches := []struct {
		name string
		sk   *Sketch
	}{
		{"one sketch", singleSketch(rows, capRows)},
		{"8 leaves", mergeLeaves(t, rows, 8, capRows)},
	}
	rules := []struct {
		rule Aggregator
		frac float64 // trimmed fraction per tail; 0 selects the median envelope
	}{
		{Median{}, 0},
		{TrimmedMean{Frac: 0.2}, 0.2},
	}
	for _, s := range sketches {
		if s.sk.Exact() || len(s.sk.Keys) != capRows || s.sk.Rows != n {
			t.Fatalf("%s: expected a saturated sketch: rows %d retained %d", s.name, s.sk.Rows, len(s.sk.Keys))
		}
		for _, r := range rules {
			flat, _, err := r.rule.Aggregate(center, rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			tree, _, err := r.rule.Aggregate(center, s.sk.RowsView(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var maxErr float64
			for j, col := range cols {
				maxErr = max(maxErr, math.Abs(tree[j]-flat[j]))
				if r.frac == 0 {
					lo, hi := orderStat(col, 0.5-eps, false), orderStat(col, 0.5+eps, true)
					if tree[j] < lo || tree[j] > hi {
						t.Fatalf("%s, %s: coord %d: sketch median %v outside [%v, %v] (ε=%.4f)",
							s.name, r.rule.Name(), j, tree[j], lo, hi, eps)
					}
					continue
				}
				width := orderStat(col, 1-r.frac, true) - orderStat(col, r.frac, false)
				if bound := eps / (1 - 2*r.frac) * width; math.Abs(tree[j]-flat[j]) > bound {
					t.Fatalf("%s, %s: coord %d: |sketch − flat| = %v exceeds ε/(1−2f)·width = %v",
						s.name, r.rule.Name(), j, math.Abs(tree[j]-flat[j]), bound)
				}
			}
			if maxErr == 0 {
				t.Fatalf("%s, %s: subsampled estimate equals the flat one everywhere; the approximate regime went unexercised",
					s.name, r.rule.Name())
			}
		}
	}
}

func TestSketchValidate(t *testing.T) {
	ok := NewSketch(4)
	ok.Add(KeyClient(1), []float64{1, 2})
	ok.Add(KeyClient(2), []float64{3, 4})
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid sketch rejected: %v", err)
	}
	if err := ok.Validate(3); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	bad := &Sketch{Cap: 2, Rows: 1, Keys: []uint64{5, 1}, Vals: [][]float64{{1}, {2}}}
	if err := bad.Validate(1); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	bad2 := &Sketch{Cap: 2, Rows: 2, Keys: []uint64{1, 5}, Vals: [][]float64{{1}, {math.NaN()}}}
	if err := bad2.Validate(1); err == nil {
		t.Fatal("non-finite row accepted")
	}
	bad3 := &Sketch{Cap: 2, Rows: 1, Keys: []uint64{1, 5}, Vals: [][]float64{{1}, {2}}}
	if err := bad3.Validate(1); err == nil {
		t.Fatal("rows < retained accepted")
	}
}

// Client and leaf key domains are disjoint, so a v1 leaf's implied-mean
// fallback row can never tie with (or displace deterministically) a real
// client row of the same numeric ID.
func TestSketchKeyDomains(t *testing.T) {
	seen := map[uint64]bool{}
	for id := 0; id < 1000; id++ {
		for _, k := range []uint64{KeyClient(id), KeyLeaf(id)} {
			if seen[k] {
				t.Fatalf("key collision at id %d", id)
			}
			seen[k] = true
		}
	}
}
