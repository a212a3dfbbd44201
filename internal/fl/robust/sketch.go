package robust

import (
	"fmt"
	"math"
)

// Mergeable row sketch. The robust rules (Median, TrimmedMean) need the
// full per-coordinate column of client rows, which is exactly what a
// hierarchical tree cannot ship: a leaf forwards one weighted Partial, not
// its updates. A Sketch bridges the two: it is a bottom-K row reservoir —
// each client row is tagged with a priority key that is a pure function of
// the client ID, and the sketch keeps the K rows with the smallest keys.
// Because the key function is a bijection (a SplitMix64 finalizer), and the
// kept set is "the K smallest keys of the union", merging is associative,
// commutative, and independent of tree shape: any tree over the same client
// set yields byte-identical retained rows at the root.
//
// Exactness and error bound. When the total row count is ≤ K the sketch
// retains every row, and a robust rule evaluated over the retained rows is
// bit-identical to flat aggregation, whose round core reads the same rows
// from a reservoir of its own in the same key order. (The rules sort each
// coordinate's column, so row order moves nothing but the sign of a zero
// median where −0 and +0 tie.) When the total exceeds K, the
// retained rows are a uniform random K-subsample of the population (the
// keys are a fixed hash of client identity, independent of the row
// values), so by Dvoretzky–Kiefer–Wolfowitz every empirical quantile of
// the subsample is within rank error
//
//	ε = sqrt(ln(2/δ) / (2K))
//
// of the population quantile with probability ≥ 1−δ, per coordinate. The
// sketch median therefore lands between the population's (½−ε)- and
// (½+ε)-quantiles; SampleRankError exposes ε for the sketch tests that
// hold this bound against flat robust aggregation.
type Sketch struct {
	// Cap is K, the maximum number of retained rows.
	Cap int
	// Rows is the total number of rows represented (added directly or via
	// merged sketches); Rows > len(Keys) means the sketch is subsampling.
	Rows int
	// Keys holds the retained rows' priority keys, sorted ascending.
	Keys []uint64
	// Vals holds the retained rows, parallel to Keys.
	Vals [][]float64
}

// NewSketch returns an empty sketch retaining at most capRows rows.
func NewSketch(capRows int) *Sketch {
	if capRows < 1 {
		capRows = 1
	}
	return &Sketch{Cap: capRows}
}

// Reset empties the sketch for a new round of at most capRows rows (0:
// it keeps none), keeping its storage.
func (s *Sketch) Reset(capRows int) {
	clear(s.Vals)
	s.Cap, s.Rows, s.Keys, s.Vals = capRows, 0, s.Keys[:0], s.Vals[:0]
}

// splitmix64 is the SplitMix64 finalizer — a bijection on uint64, so
// distinct inputs can never collide and the bottom-K order is total.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// KeyClient is the priority key of client id's row. Client and leaf keys
// live in disjoint domains (even/odd pre-images) so a leaf that falls back
// to an implied-mean row can never tie with a real client row.
func KeyClient(id int) uint64 { return splitmix64(2 * uint64(id)) }

// KeyLeaf is the priority key of leaf id's implied-mean fallback row (used
// when a child forwards a partial with no sketch), and the seed-mixing key
// of leaf id's sampled cohort.
func KeyLeaf(id int) uint64 { return splitmix64(2*uint64(id) + 1) }

// SampleRankError is the DKW rank-error bound ε for a K-row sketch at
// confidence 1−δ: every per-coordinate quantile of the retained rows is
// within ε of the population quantile with probability ≥ 1−δ.
func SampleRankError(capRows int, delta float64) float64 {
	if capRows < 1 || delta <= 0 || delta >= 1 {
		return 1
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(capRows)))
}

// Dim returns the retained rows' parameter dimension (0 when empty).
func (s *Sketch) Dim() int {
	if len(s.Vals) == 0 {
		return 0
	}
	return len(s.Vals[0])
}

// Exact reports whether the sketch still holds every represented row.
func (s *Sketch) Exact() bool { return s.Rows == len(s.Keys) }

// Add inserts a copy of row under the given key; the caller keeps row.
func (s *Sketch) Add(key uint64, row []float64) { s.Insert(key, append([]float64(nil), row...)) }

// Insert inserts row itself, not a copy, under the given priority key and
// returns the row the sketch let go of: row when it never got in, the one
// it evicted, or nil. Rows with equal keys are kept in insertion order
// (honest trees never produce ties — the key function is a bijection).
func (s *Sketch) Insert(key uint64, row []float64) (dropped []float64) {
	s.Rows++
	if len(s.Keys) == s.Cap && (s.Cap == 0 || key >= s.Keys[s.Cap-1]) {
		return row // would be evicted immediately
	}
	// Binary search for the first index with Keys[i] > key (stable).
	lo, hi := 0, len(s.Keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.Keys = append(s.Keys, 0)
	copy(s.Keys[lo+1:], s.Keys[lo:])
	s.Keys[lo] = key
	s.Vals = append(s.Vals, nil)
	copy(s.Vals[lo+1:], s.Vals[lo:])
	s.Vals[lo] = row
	if len(s.Keys) > s.Cap {
		dropped = s.Vals[s.Cap]
		s.Keys = s.Keys[:s.Cap]
		s.Vals[s.Cap] = nil
		s.Vals = s.Vals[:s.Cap]
	}
	return dropped
}

// Merge folds other into s: each of other's retained rows is inserted in
// turn, so the union's Cap-smallest keys survive, and the represented row
// counts add. Merge order cannot change the outcome for honest inputs
// (distinct keys); Insert is stable, so on ties s's rows win. other is not
// modified, but s may hold its retained rows afterwards; s's storage is
// reused, so merging into a reset sketch allocates nothing once warm.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	if d := s.Dim(); d != 0 && len(other.Keys) > 0 && other.Dim() != d {
		return fmt.Errorf("robust: sketch merge dimension mismatch: %d vs %d", d, other.Dim())
	}
	for i, key := range other.Keys {
		s.Insert(key, other.Vals[i])
	}
	s.Rows += other.Rows - len(other.Keys)
	return nil
}

// RowsView returns the retained rows in ascending key order — the
// deterministic row matrix a robust rule aggregates at the tree root. The
// rows alias the sketch's storage; do not mutate them.
func (s *Sketch) RowsView() [][]float64 { return s.Vals }

// Validate checks a sketch decoded from the wire: a sane cap, parallel
// sorted keys, a represented-row count consistent with the retained set,
// and finite rows of the expected dimension. Value bounds (the implied-mean
// norm check) stay with fl.ValidatePartial.
func (s *Sketch) Validate(wantDim int) error {
	if s.Cap < 1 {
		return fmt.Errorf("robust: sketch cap %d", s.Cap)
	}
	if len(s.Keys) != len(s.Vals) {
		return fmt.Errorf("robust: sketch has %d keys but %d rows", len(s.Keys), len(s.Vals))
	}
	if len(s.Keys) > s.Cap {
		return fmt.Errorf("robust: sketch retains %d rows over cap %d", len(s.Keys), s.Cap)
	}
	if s.Rows < len(s.Keys) {
		return fmt.Errorf("robust: sketch claims %d total rows but retains %d", s.Rows, len(s.Keys))
	}
	for i, k := range s.Keys {
		if i > 0 && k < s.Keys[i-1] {
			return fmt.Errorf("robust: sketch keys unsorted at %d", i)
		}
		row := s.Vals[i]
		if len(row) != wantDim {
			return fmt.Errorf("robust: sketch row %d has %d params, want %d", i, len(row), wantDim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("robust: sketch row %d has non-finite param %d", i, j)
			}
		}
	}
	return nil
}
