package robust

import (
	"fmt"
	"math"
)

// Streaming forms of the rules whose algebra permits them. Mean and
// ClippedMean reduce each coordinate with sums and counts, so they fold
// rows one at a time and hold O(dim) state; a stream is their only form —
// their batch Aggregate folds the rows through it in order — so batch and
// stream are one computation: the same per-coordinate add sequence, then
// one divide. Median and TrimmedMean are order statistics — they need the
// full per-coordinate column — so they deliberately do not implement
// StreamRule, and the round core keeps the round's rows for them.
//
// Streams fold serially: one row at a time on the caller's goroutine. The
// per-row work is a handful of flops per coordinate, dwarfed by the wire
// decode that precedes it, and serial folding is what makes the fold order
// (and hence the result) deterministic.

// Stream is one in-progress streaming aggregation: Reset with the round's
// center, Fold each row in the caller's fixed order, then Finalize. The
// center slice is retained until Finalize and must not be mutated.
// Finalize's output belongs to the caller, as Aggregate's does.
type Stream interface {
	Reset(center []float64)
	Fold(row []float64) error
	Finalize() ([]float64, Report, error)
}

// StreamRule is an Aggregator that can aggregate one row at a time in
// O(dim) memory. NewStream returns a reusable stream (Reset recycles its
// accumulators across rounds).
type StreamRule interface {
	Aggregator
	NewStream() Stream
}

// Compile-time: exactly the summing rules stream.
var (
	_ StreamRule = Mean{}
	_ StreamRule = ClippedMean{}
)

// NewStream implements StreamRule.
func (m Mean) NewStream() Stream { return &meanStream{} }

// meanStream folds the unweighted mean: per-coordinate finite sums and
// counts, divided at finalize.
type meanStream struct {
	center []float64
	acc    []float64
	cnt    []int32
	rows   int
}

func (s *meanStream) Reset(center []float64) { s.reset(center, len(center)) }

// reset readies the stream for dim-parameter rows; a center shorter than
// dim falls back to 0 on the missing coordinates.
func (s *meanStream) reset(center []float64, dim int) {
	s.center = center
	s.acc = resizeF64(s.acc, dim)
	if cap(s.cnt) >= dim {
		s.cnt = s.cnt[:dim]
		for i := range s.cnt {
			s.cnt[i] = 0
		}
	} else {
		s.cnt = make([]int32, dim)
	}
	s.rows = 0
}

func (s *meanStream) Fold(row []float64) error {
	if len(row) != len(s.acc) {
		return fmt.Errorf("robust: row %d has %d params, want %d", s.rows, len(row), len(s.acc))
	}
	acc, cnt := s.acc, s.cnt
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		acc[i] += v
		cnt[i]++
	}
	s.rows++
	return nil
}

func (s *meanStream) Finalize() ([]float64, Report, error) {
	if s.rows == 0 {
		return nil, Report{}, ErrNoUpdates
	}
	out := newOutput(len(s.acc))
	maxSkipped := 0
	for i, sum := range s.acc {
		n := int(s.cnt[i])
		if skipped := s.rows - n; skipped > maxSkipped {
			maxSkipped = skipped
		}
		if n == 0 {
			out[i] = centerAt(s.center, i)
			continue
		}
		out[i] = finiteOr(sum/float64(n), centerAt(s.center, i))
	}
	return out, Report{Trimmed: maxSkipped, Contributors: s.rows}, nil
}

// NewStream implements StreamRule.
func (c ClippedMean) NewStream() Stream { return &clippedStream{maxNorm: c.MaxNorm} }

// clippedStream folds the norm-clipped mean: each row's clip factor comes
// from its own delta norm (independent of every other row), so the scaled
// deltas sum coordinate-wise exactly as in the batch rule.
type clippedStream struct {
	maxNorm float64
	center  []float64
	acc     []float64
	rows    int
	nFinite int
	clipped int
}

func (s *clippedStream) Reset(center []float64) {
	s.center = center
	s.acc = resizeF64(s.acc, len(center))
	s.rows = 0
	s.nFinite = 0
	s.clipped = 0
}

func (s *clippedStream) Fold(row []float64) error {
	if len(row) != len(s.acc) {
		return fmt.Errorf("robust: row %d has %d params, want %d", s.rows, len(row), len(s.acc))
	}
	s.rows++
	var ss float64
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A non-finite row contributes nothing; it only counts toward
			// the Trimmed tally (rows − nFinite) at finalize.
			return nil
		}
		d := v - s.center[i]
		ss += d * d
	}
	s.nFinite++
	scale := 1.0
	if n := math.Sqrt(ss); s.maxNorm > 0 && n > s.maxNorm {
		scale = s.maxNorm / n
		s.clipped++
	}
	if scale == 0 {
		// Delta norm overflowed to +Inf: the clipped contribution is exactly
		// zero, and skipping the row avoids Inf·0 = NaN.
		return nil
	}
	acc, center := s.acc, s.center
	for i, v := range row {
		acc[i] += (v - center[i]) * scale
	}
	return nil
}

func (s *clippedStream) Finalize() ([]float64, Report, error) {
	if s.rows == 0 {
		return nil, Report{}, ErrNoUpdates
	}
	out := newOutput(len(s.acc))
	for i, sum := range s.acc {
		if s.nFinite == 0 {
			out[i] = centerAt(s.center, i)
			continue
		}
		out[i] = finiteOr(s.center[i]+sum/float64(s.nFinite), centerAt(s.center, i))
	}
	rep := Report{Trimmed: s.rows - s.nFinite, Clipped: s.clipped, Contributors: s.rows}
	return out, rep, nil
}

// resizeF64 returns a zeroed length-dim slice, reusing s's storage when it
// is large enough.
func resizeF64(s []float64, dim int) []float64 {
	if cap(s) < dim {
		return make([]float64, dim)
	}
	s = s[:dim]
	for i := range s {
		s[i] = 0
	}
	return s
}
