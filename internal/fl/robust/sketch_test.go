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

// Below the cap the sketch holds every row, so Median and TrimmedMean over
// the retained rows are bit-identical to flat aggregation — the rules sort
// each coordinate's column, so row order is immaterial.
func TestSketchExactBelowCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim = 24, 7
	rows := sketchRows(n, dim, rng)
	center := make([]float64, dim)

	sk := NewSketch(64)
	for i, r := range rows {
		sk.Add(KeyClient(i), r)
	}
	if !sk.Exact() {
		t.Fatalf("sketch with %d rows under cap 64 is not exact", n)
	}
	for _, rule := range []Aggregator{Median{}, TrimmedMean{Frac: 0.2}, ClippedMean{MaxNorm: 1}} {
		flat, _, err := rule.Aggregate(center, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := rule.Aggregate(center, sk.RowsView(), nil)
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
			t.Fatalf("%s: coord %d: flat %v tree %v (want identical below cap)",
				rule.Name(), i, flat[i], tree[i])
		}
	}
}

// Above the cap the retained rows are a uniform subsample; the sketch
// median must land inside the DKW quantile envelope of the population.
func TestSketchSampledWithinRankBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, dim, capRows = 4000, 3, 256
	rows := sketchRows(n, dim, rng)
	center := make([]float64, dim)

	sk := NewSketch(capRows)
	for i, r := range rows {
		sk.Add(KeyClient(i), r)
	}
	if sk.Exact() || len(sk.Keys) != capRows {
		t.Fatalf("expected a saturated sketch: rows %d retained %d", sk.Rows, len(sk.Keys))
	}
	eps := SampleRankError(capRows, 0.01)
	med, _, err := Median{}.Aggregate(center, sk.RowsView(), nil)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, n)
	for j := 0; j < dim; j++ {
		for i, r := range rows {
			col[i] = r[j]
		}
		sort.Float64s(col)
		lo := col[int(math.Max(0, (0.5-eps)*float64(n-1)))]
		hi := col[int(math.Min(float64(n-1), math.Ceil((0.5+eps)*float64(n-1))))]
		if med[j] < lo || med[j] > hi {
			t.Fatalf("coord %d: sketch median %v outside [%v, %v] (ε=%.4f)", j, med[j], lo, hi, eps)
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
