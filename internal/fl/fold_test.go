package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/fl/robust"
)

func foldUpdates(n, dim int, seed int64) []Update {
	r := rand.New(rand.NewSource(seed))
	ups := make([]Update, n)
	for j := range ups {
		p := make([]float64, dim)
		for i := range p {
			p[i] = r.NormFloat64()
		}
		ups[j] = Update{ClientID: j, Params: p, NumSamples: 1 + r.Intn(40)}
	}
	return ups
}

// TestFoldMatchesAggregateBitExact: folding updates one at a time must
// reproduce the batch Aggregate bit for bit — they are the same ordered
// sum-then-divide, which is what lets the transport coordinator stream.
func TestFoldMatchesAggregateBitExact(t *testing.T) {
	for _, n := range []int{1, 3, 16} {
		ups := foldUpdates(n, 23, int64(n))
		want, err := Aggregate(ups)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFold(23)
		for _, u := range ups {
			if err := f.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
		got, rep, err := f.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Contributors != n {
			t.Fatalf("contributors %d, want %d", rep.Contributors, n)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d coord %d: fold %v != aggregate %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestFoldPartialTree: splitting the updates into shards, folding each
// shard into a partial, and folding the partials at a root must agree
// with the flat weighted mean to floating-point reassociation tolerance
// (the tree changes the association, not the arithmetic).
func TestFoldPartialTree(t *testing.T) {
	const n, dim, shards = 12, 31, 4
	ups := foldUpdates(n, dim, 99)
	flat, err := Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}

	root := NewFold(dim)
	perShard := n / shards
	for s := 0; s < shards; s++ {
		leaf := NewFold(dim)
		for _, u := range ups[s*perShard : (s+1)*perShard] {
			if err := leaf.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
		p := leaf.PartialView(s, 7)
		if p.LeafID != s || p.Round != 7 || p.Count != perShard {
			t.Fatalf("partial header %+v", p)
		}
		if err := ValidatePartial(p, dim, 0); err != nil {
			t.Fatalf("leaf %d partial invalid: %v", s, err)
		}
		if err := root.FoldPartial(p); err != nil {
			t.Fatal(err)
		}
	}
	if c := root.PartialView(0, 7).Count; c != n {
		t.Fatalf("root count %d, want %d", c, n)
	}
	tree, rep, err := root.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Contributors != n {
		t.Fatalf("root contributors %d, want %d", rep.Contributors, n)
	}
	for i := range flat {
		if diff := math.Abs(tree[i] - flat[i]); diff > 1e-12*(1+math.Abs(flat[i])) {
			t.Fatalf("coord %d: tree %v vs flat %v (diff %v)", i, tree[i], flat[i], diff)
		}
	}
}

// TestValidatePartial covers the root's acceptance filter.
func TestValidatePartial(t *testing.T) {
	good := Partial{LeafID: 1, Round: 0, Sum: []float64{2, 4}, Weight: 2, Count: 2}
	if err := ValidatePartial(good, 2, 10); err != nil {
		t.Fatalf("valid partial rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Partial
		norm float64
	}{
		{"len mismatch", Partial{Sum: []float64{1}, Weight: 1, Count: 1}, 0},
		{"zero weight", Partial{Sum: []float64{1, 1}, Weight: 0, Count: 1}, 0},
		{"nan weight", Partial{Sum: []float64{1, 1}, Weight: math.NaN(), Count: 1}, 0},
		{"inf weight", Partial{Sum: []float64{1, 1}, Weight: math.Inf(1), Count: 1}, 0},
		{"zero count", Partial{Sum: []float64{1, 1}, Weight: 1, Count: 0}, 0},
		{"nan sum", Partial{Sum: []float64{math.NaN(), 1}, Weight: 1, Count: 1}, 0},
		{"inf sum", Partial{Sum: []float64{math.Inf(-1), 1}, Weight: 1, Count: 1}, 0},
		{"norm bound", Partial{Sum: []float64{30, 40}, Weight: 1, Count: 1}, 10},
	}
	for _, tc := range cases {
		if err := ValidatePartial(tc.p, 2, tc.norm); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The norm bound applies to the implied mean Sum/Weight, not the raw
	// sums: a heavy shard with a large weight stays admissible.
	heavy := Partial{Sum: []float64{3000, 4000}, Weight: 1000, Count: 100}
	if err := ValidatePartial(heavy, 2, 10); err != nil {
		t.Fatalf("heavy shard rejected: %v", err)
	}
}

// TestFoldRejectsBadUpdates mirrors the legacy Aggregate error paths.
func TestFoldRejectsBadUpdates(t *testing.T) {
	f := NewFold(2)
	if err := f.Fold(Update{ClientID: 3, Params: []float64{1}, NumSamples: 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := f.Fold(Update{ClientID: 4, Indices: []int{0}, Params: []float64{1}, DenseLen: 2, NumSamples: 1}); err == nil {
		t.Fatal("sparse update accepted")
	}
	empty := NewFold(2)
	if _, _, err := empty.Finalize(); err == nil {
		t.Fatal("empty finalize accepted")
	}
}

// TestFoldSteadyStateZeroAllocs: the Reset→Fold→FinalizeInto cycle the
// coordinator and in-process server run every round must not allocate
// once warmed up — the pooled-accumulator satellite of the scale-out PR.
func TestFoldSteadyStateZeroAllocs(t *testing.T) {
	const dim = 256
	ups := foldUpdates(8, dim, 5)
	f := NewFold(dim)
	dst := make([]float64, dim)
	round := func() {
		f.Reset(dim)
		for _, u := range ups {
			if err := f.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.FinalizeInto(dst); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm up
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state fold allocates %v objects per round, want 0", allocs)
	}
}

// TestRoundCoreFinishers: the round core folds a streaming robust rule's
// updates as they are taken and refuses child partials, which carry no
// rows without a reservoir; a rule with no stream form keeps every row of
// a flat round until its tail.
func TestRoundCoreFinishers(t *testing.T) {
	var r RoundCore
	r.Global = []float64{1, 1}
	r.SetRule(robust.Mean{})
	r.Begin(0, 0)
	if r.Keeps() || r.Reservoir() != nil {
		t.Fatal("a streaming rule keeps its rows")
	}
	if _, err := r.Fold(Update{ClientID: 0, Params: []float64{3, 5}, NumSamples: 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.FoldPartial(Partial{Sum: []float64{1, 1}, Weight: 1, Count: 1}); err == nil {
		t.Fatal("robust stream accepted a partial")
	}
	out, rep, err := r.Aggregate(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Contributors != 1 || out[0] != 3 || out[1] != 5 {
		t.Fatalf("stream result %v %+v", out, rep)
	}

	r.SetRule(robust.Median{})
	r.Begin(1, 0)
	ups := foldUpdates(5, 2, 3)
	for _, u := range ups {
		if free, err := r.Fold(u); err != nil || free != nil {
			t.Fatalf("fold: freed %v, %v", free, err)
		}
	}
	if sk := r.Reservoir(); !r.Keeps() || sk == nil || !sk.Exact() || sk.Rows != len(ups) {
		t.Fatalf("a flat median round's reservoir %+v does not hold all %d rows", sk, len(ups))
	}
}
