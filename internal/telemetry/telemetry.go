// Package telemetry is the repo's stdlib-only observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms) that
// exposes both Prometheus text exposition and expvar-style JSON over
// HTTP.
//
// Two design rules keep the hot paths honest:
//
//  1. Everything is nil-safe. A nil *Registry hands out nil metrics, and
//     every method on a nil metric is a no-op that performs zero heap
//     allocations, so library code can be instrumented unconditionally
//     and pays nothing when telemetry is off (see the no-op benchmark).
//  2. Updates are lock-free. Counters and histogram buckets are atomic
//     adds; gauges and histogram sums are CAS loops over float64 bits.
//     The registry mutex guards only metric creation, never updates.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry can hold.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry owns a namespace of metrics. The zero value is not useful;
// create one with NewRegistry. A nil *Registry is valid everywhere and
// produces nil (no-op) metrics.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is the common view exposition needs of every family.
type metric interface {
	metricName() string
	metricHelp() string
	kind() Kind
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register adds m under its name, or returns the existing metric of the
// same name. Re-registering a name as a different kind panics: that is a
// programming error, not a runtime condition.
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.metrics[m.metricName()]; ok {
		if prev.kind() != m.kind() {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)",
				m.metricName(), m.kind(), prev.kind()))
		}
		return prev
	}
	r.metrics[m.metricName()] = m
	return m
}

// snapshot returns the metrics sorted by name for deterministic exposition.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	out := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].metricName() < out[j].metricName() })
	return out
}

// Counter registers (or fetches) a monotonically increasing counter.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(&Counter{name: name, help: help}).(*Counter)
}

// Gauge registers (or fetches) a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(&Gauge{name: name, help: help}).(*Gauge)
}

// Histogram registers (or fetches) a histogram over the given bucket
// upper bounds (ascending; a +Inf bucket is implicit). Returns nil on a
// nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending at %d", name, i))
		}
	}
	bounds := append([]float64(nil), buckets...)
	h := &Histogram{name: name, help: help, bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1)}
	return r.register(h).(*Histogram)
}

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver and safe for concurrent use.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) kind() Kind         { return KindCounter }

// Gauge is a float64 metric that can go up and down. All methods are safe
// on a nil receiver and safe for concurrent use.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) kind() Kind         { return KindGauge }

// Histogram counts observations into a fixed bucket layout. All methods
// are safe on a nil receiver and safe for concurrent use.
type Histogram struct {
	name, help string
	bounds     []float64       // ascending upper bounds; +Inf implicit
	counts     []atomic.Uint64 // len(bounds)+1, non-cumulative
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow bucket. Nil receiver returns nil.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) kind() Kind         { return KindHistogram }

// ExpBuckets returns n ascending bucket bounds starting at start and
// growing by factor — the layout used for the duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default layout for wall-time histograms: 1ms to
// ~8.7min in powers of two.
func DurationBuckets() []float64 { return ExpBuckets(0.001, 2, 20) }
