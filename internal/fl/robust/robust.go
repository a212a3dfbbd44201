// Package robust implements Byzantine-resilient aggregation rules for the
// federation: coordinate-wise median, trimmed mean, and norm-clipped mean
// behind one Aggregator interface, plus the per-client reputation tracker
// (reputation.go) that turns per-round anomaly evidence into a quarantine
// decision.
//
// The package is deliberately free of any dependency on internal/fl: it
// operates on raw parameter matrices, so the fl engine and the TCP
// coordinator can both import it. Their shared round core
// (fl.RoundCore) holds a round's rows in one Sketch reservoir and runs a
// rule once over it at the round's end, or folds the rule's Stream as
// each update is taken.
//
// Threat model. MaxUpdateNorm (PR 4) stops NaN/Inf and exploding updates,
// but a Byzantine client that stays under the norm bound can still steer a
// plain FedAvg mean arbitrarily far — the mean has a breakdown point of 0.
// The rules here bound that influence: the coordinate-wise median and the
// f-trimmed mean tolerate up to f < n/2 (median) or f ≤ trim·n (trimmed)
// arbitrary updates per coordinate, and the norm-clipped mean caps every
// client's pull on the aggregate at MaxNorm regardless of what it sends.
//
// All rules are unweighted on purpose: the FedAvg sample weights are
// client-reported and therefore attacker-controlled — a single colluder
// claiming 10^9 samples would dominate any weighted rule. Honest-path
// weighting is preserved by the default (nil) aggregator, which keeps the
// legacy sample-weighted fl.Aggregate.
//
// Determinism. Every rule is computed coordinate-by-coordinate with a
// fixed per-coordinate algorithm. Median and TrimmedMean partition the
// coordinate range across workers, so their results are bit-identical at
// any worker count; Mean and ClippedMean fold rows serially through their
// stream form (stream.go), batch and stream alike.
package robust

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Report describes what a robust rule discarded or limited in one
// aggregation: it feeds the fl_robust_trimmed_total telemetry and the
// post-trim quorum check (fl.ErrQuorumAfterTrim).
type Report struct {
	// Trimmed is the number of client contributions excluded from every
	// output coordinate (both tails combined for the trimmed mean; the
	// non-finite inputs skipped by any rule are also counted here, once
	// per client at their per-coordinate maximum).
	Trimmed int
	// Clipped is the number of updates whose influence was norm-clipped.
	Clipped int
	// Contributors is the number of inputs that can still influence the
	// aggregate after trimming — the count the post-trim quorum check
	// compares against MinQuorum.
	Contributors int
}

// Aggregator is one robust aggregation rule. Aggregate combines the row
// vectors of params (all rows must share one length) into an output vector,
// aliasing neither center nor a row, that belongs to the caller: it may
// hand it back with Recycle once nothing reads it. center is the pre-round
// global parameter vector; rules that reason about update deltas (the
// norm-clipped mean) measure against it, and every rule falls back to it
// on coordinates where no finite contribution survives. weights carries
// the clients' claimed sample counts; robust rules ignore it (see the
// package comment) but receive it so the plain Mean can stay
// weight-compatible.
type Aggregator interface {
	Name() string
	Aggregate(center []float64, params [][]float64, weights []float64) ([]float64, Report, error)
	// Contributors returns how many of n inputs remain able to influence
	// the aggregate under this rule (n minus the trimmed tails). The
	// engine rejects a round when this falls below MinQuorum.
	Contributors(n int) int
}

// ErrNoUpdates is returned when a rule is asked to aggregate zero rows.
var ErrNoUpdates = errors.New("robust: aggregate of zero updates")

// checkShape validates the input matrix and returns the row length.
func checkShape(params [][]float64) (int, error) {
	if len(params) == 0 {
		return 0, ErrNoUpdates
	}
	dim := len(params[0])
	for i, row := range params {
		if len(row) != dim {
			return 0, fmt.Errorf("robust: row %d has %d params, want %d", i, len(row), dim)
		}
	}
	return dim, nil
}

// centerAt returns the fallback value for a coordinate with no finite
// contributions: the center's value when finite, else 0.
func centerAt(center []float64, i int) float64 {
	if i < len(center) {
		if v := center[i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
	return 0
}

// finiteOr saturates the last-resort overflow cases so no rule ever emits a
// non-finite aggregate. Mean and ClippedMean accumulate sum-then-divide; a
// sum of finite terms can overflow to ±Inf, which the divide preserves and
// this clamp turns into ±MaxFloat64. NaN cannot arise from the
// accumulation itself — a saturated partial sum keeps its sign, so Inf−Inf
// never happens — but a non-finite center coordinate can inject one
// through ClippedMean's delta; it falls back.
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	if math.IsNaN(v) {
		return fallback
	}
	return v
}

// scratchPool recycles the per-block column scratch Median and TrimmedMean
// sort in, so steady-state rounds stop allocating one slice per block per
// aggregation.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

func getScratch(capHint int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < capHint {
		*p = make([]float64, 0, capHint)
	}
	return p
}

func putScratch(p *[]float64) {
	*p = (*p)[:0]
	scratchPool.Put(p)
}

// idleMeans and idleClips keep the summing rules' batch streams between
// Aggregate calls, as scratchPool does the sorting rules' columns, so a
// steady-state batch call allocates no O(dim) accumulators.
var (
	idleMeans = sync.Pool{New: func() any { return new(meanStream) }}
	idleClips = sync.Pool{New: func() any { return new(clippedStream) }}
)

// outputs is the free list every rule's output is drawn from. Like
// tensor's idle workspaces it keeps at most GOMAXPROCS vectors; the oldest
// makes room, so vectors of a stale length cannot pin it.
var outputs struct {
	mu   sync.Mutex
	list [][]float64
}

// newOutput returns an idle vector of exactly length n, else a fresh one.
// Its contents are arbitrary: every rule writes every coordinate.
func newOutput(n int) []float64 {
	outputs.mu.Lock()
	defer outputs.mu.Unlock()
	if i := slices.IndexFunc(outputs.list, func(v []float64) bool { return len(v) == n }); i >= 0 {
		v := outputs.list[i]
		outputs.list = slices.Delete(outputs.list, i, i+1)
		return v
	}
	return make([]float64, n)
}

// Recycle hands back an output of Aggregate or Finalize once nothing reads
// it, for a later output to be built in; the caller must not touch v
// afterwards. A vector already idle is not added twice.
func Recycle(v []float64) {
	outputs.mu.Lock()
	defer outputs.mu.Unlock()
	if len(v) == 0 || slices.ContainsFunc(outputs.list, func(w []float64) bool { return &w[0] == &v[0] }) {
		return
	}
	for len(outputs.list) >= runtime.GOMAXPROCS(0) {
		outputs.list = slices.Delete(outputs.list, 0, 1)
	}
	outputs.list = append(outputs.list, v)
}

// parallelCoords splits [0, dim) into contiguous blocks and runs fn on
// them across workers. Coordinates are independent under every rule here,
// so any worker count produces bit-identical output.
func parallelCoords(dim, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const minBlock = 1024
	if workers > dim/minBlock {
		workers = dim / minBlock
	}
	if workers < 2 {
		fn(0, dim)
		return
	}
	var wg sync.WaitGroup
	block := (dim + workers - 1) / workers
	for lo := 0; lo < dim; lo += block {
		hi := lo + block
		if hi > dim {
			hi = dim
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Mean is the unweighted arithmetic mean with non-finite inputs skipped
// per coordinate. It exists as the robust interface's baseline (trim
// fraction 0 of TrimmedMean reduces to it) and for the overhead
// benchmarks; the engine's default weighted FedAvg path stays in
// fl.Aggregate.
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// Contributors implements Aggregator.
func (Mean) Contributors(n int) int { return n }

// Aggregate implements Aggregator: its stream folds the rows in order.
func (Mean) Aggregate(center []float64, params [][]float64, _ []float64) ([]float64, Report, error) {
	dim, err := checkShape(params)
	if err != nil {
		return nil, Report{}, err
	}
	s := idleMeans.Get().(*meanStream)
	defer idleMeans.Put(s)
	s.reset(center, dim)
	return foldRows(s, params)
}

// Median is the coordinate-wise median: per coordinate, the middle order
// statistic (mean of the two middles for even n). Any minority of
// arbitrary values per coordinate moves the output at most to an honest
// client's value — breakdown point ⌈n/2⌉.
type Median struct {
	// Workers bounds the coordinate-parallel fan-out (0 = GOMAXPROCS).
	Workers int
}

// Name implements Aggregator.
func (Median) Name() string { return "median" }

// Contributors implements Aggregator. The median discards no fixed tail —
// every input participates in the per-coordinate selection — so the
// contributor count is n.
func (Median) Contributors(n int) int { return n }

// Aggregate implements Aggregator.
func (m Median) Aggregate(center []float64, params [][]float64, _ []float64) ([]float64, Report, error) {
	dim, err := checkShape(params)
	if err != nil {
		return nil, Report{}, err
	}
	out := newOutput(dim)
	var maxSkipped atomicMax
	parallelCoords(dim, m.Workers, func(lo, hi int) {
		sp := getScratch(len(params))
		scratch := *sp
		worst := 0
		for i := lo; i < hi; i++ {
			var skipped int
			scratch, skipped = sortedColumn(scratch, params, i)
			worst = max(worst, skipped)
			if len(scratch) == 0 {
				out[i] = centerAt(center, i)
				continue
			}
			mid := len(scratch) / 2
			if len(scratch)%2 == 1 {
				out[i] = scratch[mid]
			} else {
				// Halve before adding: (a+b) can overflow when both middles
				// sit near ±MaxFloat64; a/2+b/2 cannot.
				out[i] = scratch[mid-1]/2 + scratch[mid]/2
			}
		}
		*sp = scratch
		putScratch(sp)
		maxSkipped.max(worst)
	})
	return out, Report{Trimmed: maxSkipped.get(), Contributors: len(params)}, nil
}

// TrimmedMean is the coordinate-wise f-trimmed mean: per coordinate, sort
// the n values, drop the ⌊f·n⌋ largest and ⌊f·n⌋ smallest, and average
// the rest. With trim fraction f it tolerates up to ⌊f·n⌋ Byzantine
// clients per coordinate; f = 0 reduces exactly to Mean.
type TrimmedMean struct {
	// Frac is the fraction trimmed from EACH tail, clamped to [0, 0.5).
	Frac float64
	// Workers bounds the coordinate-parallel fan-out (0 = GOMAXPROCS).
	Workers int
}

// Name implements Aggregator.
func (t TrimmedMean) Name() string { return fmt.Sprintf("trimmed(%g)", t.frac()) }

func (t TrimmedMean) frac() float64 {
	f := t.Frac
	if f < 0 {
		return 0
	}
	if f >= 0.5 {
		return 0.4999
	}
	return f
}

// trim returns how many values are dropped from each tail at n inputs.
func (t TrimmedMean) trim(n int) int {
	k := int(t.frac() * float64(n))
	if 2*k >= n && n > 0 {
		k = (n - 1) / 2
	}
	return k
}

// Contributors implements Aggregator: n minus both trimmed tails.
func (t TrimmedMean) Contributors(n int) int { return n - 2*t.trim(n) }

// Aggregate implements Aggregator.
func (t TrimmedMean) Aggregate(center []float64, params [][]float64, _ []float64) ([]float64, Report, error) {
	dim, err := checkShape(params)
	if err != nil {
		return nil, Report{}, err
	}
	k := t.trim(len(params))
	out := newOutput(dim)
	var maxSkipped atomicMax
	parallelCoords(dim, t.Workers, func(lo, hi int) {
		sp := getScratch(len(params))
		scratch := *sp
		worst := 0
		for i := lo; i < hi; i++ {
			var skipped int
			scratch, skipped = sortedColumn(scratch, params, i)
			worst = max(worst, skipped)
			if len(scratch) == 0 {
				out[i] = centerAt(center, i)
				continue
			}
			kk := k
			if 2*kk >= len(scratch) {
				kk = (len(scratch) - 1) / 2
			}
			kept := scratch[kk : len(scratch)-kk]
			var sum float64
			for _, v := range kept {
				sum += v / float64(len(kept))
			}
			out[i] = finiteOr(sum, centerAt(center, i))
		}
		*sp = scratch
		putScratch(sp)
		maxSkipped.max(worst)
	})
	rep := Report{Trimmed: 2*k + maxSkipped.get(), Contributors: t.Contributors(len(params))}
	return out, rep, nil
}

// ClippedMean is the norm-clipped mean: each update's delta from the
// center is scaled down to at most MaxNorm in L2, then the clipped deltas
// are averaged onto the center. No single client can pull the aggregate
// more than MaxNorm/n from the center, whatever it sends.
type ClippedMean struct {
	// MaxNorm is the per-update delta bound; values ≤ 0 disable clipping
	// (the rule degrades to the unweighted mean of center+delta).
	MaxNorm float64
}

// Name implements Aggregator.
func (c ClippedMean) Name() string { return fmt.Sprintf("clipped(%g)", c.MaxNorm) }

// Contributors implements Aggregator.
func (ClippedMean) Contributors(n int) int { return n }

// Aggregate implements Aggregator: its stream folds the rows in order.
func (c ClippedMean) Aggregate(center []float64, params [][]float64, _ []float64) ([]float64, Report, error) {
	dim, err := checkShape(params)
	if err != nil {
		return nil, Report{}, err
	}
	if len(center) != dim {
		return nil, Report{}, fmt.Errorf("robust: clipped mean needs a %d-param center, have %d", dim, len(center))
	}
	s := idleClips.Get().(*clippedStream)
	defer idleClips.Put(s)
	s.maxNorm = c.MaxNorm
	s.Reset(center)
	return foldRows(s, params)
}

// foldRows is a summing rule's batch form: s, reset for the round, folds
// every row in order and finalizes.
func foldRows(s Stream, params [][]float64) ([]float64, Report, error) {
	for _, row := range params {
		if err := s.Fold(row); err != nil {
			return nil, Report{}, err
		}
	}
	return s.Finalize()
}

// sortedColumn fills dst with the finite values of column i in ascending
// order and returns them with the number of non-finite values skipped: the
// count falls out of the gather, so no second sweep over the rows is made.
func sortedColumn(dst []float64, params [][]float64, i int) ([]float64, int) {
	dst = dst[:0]
	for _, row := range params {
		if v := row[i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			dst = append(dst, v)
		}
	}
	if len(dst) <= maxInsertion {
		insertionSort(dst)
	} else {
		sort.Float64s(dst)
	}
	return dst, len(params) - len(dst)
}

// maxInsertion is the longest slice sort.Float64s sorts by insertion
// alone. Up to this length its pdqsort runs insertionSort's exact swaps,
// so ±0 ties land where they would have; past it, partitioning may
// reorder them, and the call goes to sort.Float64s.
const maxInsertion = 12

// insertionSort sorts finite values ascending by the stable insertion
// sort pdqsort runs on short slices, inline: a column of a few rows (a
// tree root's median over its leaves) costs no call into the sort package.
func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// atomicMax is a mutex-guarded running maximum (blocks race on it).
type atomicMax struct {
	mu sync.Mutex
	v  int
}

func (m *atomicMax) max(v int) {
	m.mu.Lock()
	if v > m.v {
		m.v = v
	}
	m.mu.Unlock()
}

func (m *atomicMax) get() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v
}

// Distances returns each row's L2 distance from agg — the per-round
// deviation signal the reputation tracker scores. Non-finite coordinates
// contribute the row's worst case (+Inf), so a poisoned update that
// somehow reaches this point scores maximally anomalous.
func Distances(agg []float64, params [][]float64) []float64 {
	out := make([]float64, len(params))
	for r, row := range params {
		var ss float64
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ss = math.Inf(1)
				break
			}
			d := v - agg[i]
			ss += d * d
		}
		out[r] = math.Sqrt(ss)
	}
	return out
}

// New builds an aggregator by flag name: "mean", "median", "trimmed"
// (with trimFrac per tail), or "clipped" (with maxNorm). The empty string
// and "fedavg" return nil, selecting the engine's legacy sample-weighted
// FedAvg path.
func New(name string, trimFrac, maxNorm float64) (Aggregator, error) {
	switch name {
	case "", "fedavg":
		return nil, nil
	case "mean":
		return Mean{}, nil
	case "median":
		return Median{}, nil
	case "trimmed":
		if trimFrac <= 0 || trimFrac >= 0.5 {
			return nil, fmt.Errorf("robust: trimmed mean needs a trim fraction in (0, 0.5), have %g", trimFrac)
		}
		return TrimmedMean{Frac: trimFrac}, nil
	case "clipped":
		if maxNorm <= 0 {
			return nil, fmt.Errorf("robust: clipped mean needs a positive norm bound, have %g", maxNorm)
		}
		return ClippedMean{MaxNorm: maxNorm}, nil
	default:
		return nil, fmt.Errorf("robust: unknown aggregator %q (want mean, median, trimmed, or clipped)", name)
	}
}
