package robust

import (
	"math"
	"math/rand"
	"testing"
)

// streamRows generates a deterministic update matrix with optional
// non-finite poison, exercising the skip paths of both code shapes.
func streamRows(rows, dim int, poison bool, seed int64) (center []float64, params [][]float64) {
	r := rand.New(rand.NewSource(seed))
	center = make([]float64, dim)
	for i := range center {
		center[i] = r.NormFloat64()
	}
	params = make([][]float64, rows)
	for j := range params {
		row := make([]float64, dim)
		for i := range row {
			row[i] = center[i] + r.NormFloat64()*float64(j+1)
		}
		if poison && j%3 == 1 {
			row[r.Intn(dim)] = math.NaN()
		}
		if poison && j%4 == 2 {
			row[r.Intn(dim)] = math.Inf(1 - 2*(j%2))
		}
		params[j] = row
	}
	return center, params
}

// saturate is the rules' overflow clamp by definition: ±Inf becomes
// ±MaxFloat64, NaN the fallback.
func saturate(v, fallback float64) float64 {
	switch {
	case math.IsNaN(v):
		return fallback
	case math.IsInf(v, 0):
		return math.Copysign(math.MaxFloat64, v)
	}
	return v
}

// serialSums is the summing rules by definition, one plain loop per
// coordinate: each row's finite values — its delta from the center scaled
// to at most maxNorm (clip) when clip is set — summed in row order, then
// divided once by the count summed and, when clipping, added to the
// center. A coordinate with nothing summed keeps the center's (finite)
// value, else 0. The report counts, for the mean, the most values skipped
// at one coordinate; when clipping, the rows with any non-finite value and
// those scaled down.
func serialSums(center []float64, params [][]float64, clip bool, maxNorm float64) ([]float64, Report) {
	fallback := func(i int) float64 {
		if i < len(center) && !math.IsNaN(center[i]) && !math.IsInf(center[i], 0) {
			return center[i]
		}
		return 0
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	scale := make([]float64, len(params)) // 0: the row adds nothing
	rep := Report{Contributors: len(params)}
	nRows := 0
	for r, row := range params {
		scale[r] = 1
		if !clip {
			continue
		}
		var ss float64
		for i, v := range row {
			if !finite(v) {
				scale[r] = -1
				break
			}
			ss += (v - center[i]) * (v - center[i])
		}
		if scale[r] < 0 {
			scale[r] = 0
			rep.Trimmed++
			continue
		}
		nRows++
		if n := math.Sqrt(ss); maxNorm > 0 && n > maxNorm {
			scale[r] = maxNorm / n
			rep.Clipped++
		}
	}
	out := make([]float64, len(params[0]))
	for i := range out {
		var sum float64
		n := 0
		for r, row := range params {
			switch {
			case clip && scale[r] != 0:
				sum += (row[i] - center[i]) * scale[r]
			case !clip && finite(row[i]):
				sum += row[i]
				n++
			}
		}
		if clip {
			n = nRows
		} else {
			rep.Trimmed = max(rep.Trimmed, len(params)-n)
		}
		switch {
		case n == 0:
			out[i] = fallback(i)
		case clip:
			out[i] = saturate(center[i]+sum/float64(n), fallback(i))
		default:
			out[i] = saturate(sum/float64(n), fallback(i))
		}
	}
	return out, rep
}

// TestStreamMatchesBatchBitExact: the summing rules' batch Aggregate and
// their stream, folding rows one at a time in row order, must both equal
// a plain serial sum-then-divide loop bit for bit, report included — the
// contract the round core's streaming fold relies on for aggregate
// determinism. Poisoned inputs exercise the skip bookkeeping.
func TestStreamMatchesBatchBitExact(t *testing.T) {
	rules := []StreamRule{
		Mean{},
		ClippedMean{MaxNorm: 2.5},
		ClippedMean{MaxNorm: 0.1},
	}
	for _, rule := range rules {
		clip, isClip := rule.(ClippedMean)
		for _, poison := range []bool{false, true} {
			for _, rows := range []int{1, 2, 7, 32} {
				center, params := streamRows(rows, 17, poison, int64(rows)*7+1)
				wantOut, wantRep := serialSums(center, params, isClip, clip.MaxNorm)
				batchOut, batchRep, err := rule.Aggregate(center, params, nil)
				if err != nil {
					t.Fatalf("%s batch: %v", rule.Name(), err)
				}
				st := rule.NewStream()
				st.Reset(center)
				for _, row := range params {
					if err := st.Fold(row); err != nil {
						t.Fatalf("%s fold: %v", rule.Name(), err)
					}
				}
				streamOut, streamRep, err := st.Finalize()
				if err != nil {
					t.Fatalf("%s finalize: %v", rule.Name(), err)
				}
				for form, got := range map[string][]float64{"batch": batchOut, "stream": streamOut} {
					rep := map[string]Report{"batch": batchRep, "stream": streamRep}[form]
					if rep != wantRep {
						t.Fatalf("%s %s rows=%d poison=%v: report %+v, want %+v",
							rule.Name(), form, rows, poison, rep, wantRep)
					}
					for i := range wantOut {
						if math.Float64bits(got[i]) != math.Float64bits(wantOut[i]) {
							t.Fatalf("%s %s rows=%d poison=%v coord %d: %v != serial %v",
								rule.Name(), form, rows, poison, i, got[i], wantOut[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamReuse: a stream must be reusable across rounds via Reset with
// no bleed-through from the previous fold.
func TestStreamReuse(t *testing.T) {
	rule := ClippedMean{MaxNorm: 1.5}
	st := rule.NewStream()
	for round := 0; round < 3; round++ {
		center, params := streamRows(5, 9, round == 1, int64(round)+41)
		want, _, err := rule.Aggregate(center, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.Reset(center)
		for _, row := range params {
			if err := st.Fold(row); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := st.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d coord %d: %v != %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestStreamErrors: shape violations and empty folds surface as errors,
// matching the batch rules.
func TestStreamErrors(t *testing.T) {
	st := Mean{}.NewStream()
	st.Reset([]float64{0, 0})
	if err := st.Fold([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Fold([]float64{1}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	empty := Mean{}.NewStream()
	empty.Reset([]float64{0})
	if _, _, err := empty.Finalize(); err == nil {
		t.Fatal("want ErrNoUpdates on empty finalize")
	}
}
