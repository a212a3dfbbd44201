package robust

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// bySort is the order-statistic rules' definition: per coordinate, gather
// the finite values in row order, sort.Float64s them, and pick the output
// from the sorted column (the center's value when nothing finite is left).
// It also returns the worst per-coordinate count of skipped values.
func bySort(center []float64, params [][]float64, pick func(i int, sorted []float64) float64) ([]float64, int) {
	out := make([]float64, len(params[0]))
	worst := 0
	for i := range out {
		var col []float64
		for _, row := range params {
			if v := row[i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				col = append(col, v)
			}
		}
		worst = max(worst, len(params)-len(col))
		if len(col) == 0 {
			out[i] = centerAt(center, i)
			continue
		}
		sort.Float64s(col)
		out[i] = pick(i, col)
	}
	return out, worst
}

// medianSorted is Median.Aggregate by its definition, the oracle the
// fused gather-and-count kernel writing into a recycled output must match
// bit for bit.
func medianSorted(center []float64, params [][]float64) ([]float64, Report) {
	out, skipped := bySort(center, params, func(_ int, col []float64) float64 {
		mid := len(col) / 2
		if len(col)%2 == 1 {
			return col[mid]
		}
		return col[mid-1]/2 + col[mid]/2
	})
	return out, Report{Trimmed: skipped, Contributors: len(params)}
}

// trimmedSorted is TrimmedMean.Aggregate by its definition.
func trimmedSorted(t TrimmedMean, center []float64, params [][]float64) ([]float64, Report) {
	k := t.trim(len(params))
	out, skipped := bySort(center, params, func(i int, col []float64) float64 {
		kk := k
		if 2*kk >= len(col) {
			kk = (len(col) - 1) / 2
		}
		kept := col[kk : len(col)-kk]
		var sum float64
		for _, v := range kept {
			sum += v / float64(len(kept))
		}
		return finiteOr(sum, centerAt(center, i))
	})
	return out, Report{Trimmed: 2*k + skipped, Contributors: t.Contributors(len(params))}
}

// checkAgainstDefinition runs rule on params and requires its output's
// bits and its Report to equal the sort-based definition's. Only Median
// and TrimmedMean have one; other rules pass unchecked.
func checkAgainstDefinition(t *testing.T, rule Aggregator, center []float64, params [][]float64) {
	t.Helper()
	var want []float64
	var wantRep Report
	switch r := rule.(type) {
	case Median:
		want, wantRep = medianSorted(center, params)
	case TrimmedMean:
		want, wantRep = trimmedSorted(r, center, params)
	default:
		return
	}
	got, rep, err := rule.Aggregate(center, params, nil)
	if err != nil {
		t.Fatalf("%s: %v", rule.Name(), err)
	}
	defer Recycle(got)
	if rep != wantRep {
		t.Fatalf("%s over %d rows: report %+v, definition %+v", rule.Name(), len(params), rep, wantRep)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s over %d rows, coordinate %d: %v, definition %v (column %v)",
				rule.Name(), len(params), i, got[i], want[i], column(params, i))
		}
	}
}

func column(params [][]float64, i int) []float64 {
	col := make([]float64, len(params))
	for r, row := range params {
		col[r] = row[i]
	}
	return col
}

// TestSortedKernelMatchesDefinition holds the fused kernel to the
// sort-based definition on both sides of sort.Float64s' insertion-sort
// cutoff (12 values): columns of tied signed zeros (where only the
// definition's order gives its zero sign), columns with NaN/Inf skipped,
// columns with nothing finite, and plain random ones.
func TestSortedKernelMatchesDefinition(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ties := []float64{negZero, 0, negZero, 0, 1, -1}
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	rules := []Aggregator{Median{}, TrimmedMean{Frac: 0.1}, TrimmedMean{Frac: 0.25}, TrimmedMean{Frac: 0.49}}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		const dim = 256
		center := randVec(rng, dim)
		params := make([][]float64, n)
		for r := range params {
			params[r] = make([]float64, dim)
			for i := range params[r] {
				var v float64
				switch i % 4 {
				case 0: // signed-zero ties
					v = ties[rng.Intn(len(ties))]
				case 1: // ties and skips
					v = ties[rng.Intn(len(ties))]
					if rng.Intn(3) == 0 {
						v = poison[rng.Intn(len(poison))]
					}
				case 2: // nothing finite
					v = poison[rng.Intn(len(poison))]
				default:
					v = rng.NormFloat64()
				}
				params[r][i] = v
			}
		}
		for _, rule := range rules {
			t.Run(fmt.Sprintf("%s/n=%d", rule.Name(), n), func(t *testing.T) {
				checkAgainstDefinition(t, rule, center, params)
			})
		}
	}
}

// TestRecycleHandsOutOnce: a recycled vector comes back for its exact
// length only, recycling it twice does not hand it out twice, and the
// free list stays bounded by GOMAXPROCS.
func TestRecycleHandsOutOnce(t *testing.T) {
	const n = 7919 // a length no other test recycles
	v := make([]float64, n)
	Recycle(v)
	Recycle(v)
	if w := newOutput(n + 1); len(w) != n+1 || &w[0] == &v[0] {
		t.Fatal("a recycled vector was handed out for another length")
	}
	a, b := newOutput(n), newOutput(n)
	if &a[0] != &v[0] {
		t.Fatal("the free list did not hand back the recycled vector")
	}
	if &b[0] == &a[0] {
		t.Fatal("a vector recycled twice was handed out twice")
	}
	procs := runtime.GOMAXPROCS(0)
	for range procs + 3 {
		Recycle(make([]float64, n))
	}
	outputs.mu.Lock()
	idle := len(outputs.list)
	outputs.mu.Unlock()
	if idle > procs {
		t.Fatalf("%d idle vectors, want at most GOMAXPROCS = %d", idle, procs)
	}
}

// TestRecycleConcurrent: sessions draw and recycle outputs from several
// goroutines at once, and no vector is ever held by two of them — each
// fills its vector with its own id and finds nothing else there before
// handing it back (run it under -race).
func TestRecycleConcurrent(t *testing.T) {
	const n, workers, iters = 97, 4, 200
	var wg sync.WaitGroup
	for id := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				v := newOutput(n)
				for i := range v {
					v[i] = float64(id)
				}
				runtime.Gosched()
				for i := range v {
					if v[i] != float64(id) {
						t.Errorf("worker %d: its output was written by worker %v", id, v[i])
						return
					}
				}
				Recycle(v)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRobustAggregate times the order-statistic rules over the
// benchmark model's dimension, each output recycled as the TCP root and
// the in-process server recycle theirs. The rows are overlapping windows
// of one random vector, so 64 of them cost one model's memory.
func BenchmarkRobustAggregate(b *testing.B) {
	const dim, stride = 719364, 1031
	rng := rand.New(rand.NewSource(1))
	base := randVec(rng, dim+64*stride)
	center := base[:dim]
	for _, rule := range []Aggregator{Median{}, TrimmedMean{Frac: 0.2}} {
		for _, n := range []int{2, 8, 64} {
			params := make([][]float64, n)
			for r := range params {
				params[r] = base[(r+1)*stride : (r+1)*stride+dim]
			}
			b.Run(fmt.Sprintf("%s/n=%d", rule.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					out, _, err := rule.Aggregate(center, params, nil)
					if err != nil {
						b.Fatal(err)
					}
					Recycle(out)
				}
			})
		}
	}
}
