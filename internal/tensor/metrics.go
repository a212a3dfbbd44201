package tensor

import (
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/telemetry"
)

// Kernel-layer observability: the package always keeps cheap atomic
// counters (a few adds per conv call), and EnableMetrics additionally
// mirrors them into a telemetry.Registry so GEMM throughput and pool
// behavior show up on /metrics next to the federation gauges.

// gemmTimedVolume is the m*n*k volume above which GEMM wall time is
// measured for the GFLOP/s gauge. Small products skip the clock entirely.
const gemmTimedVolume = parallelThreshold

// hotCounter is an always-on atomic counter with an optional telemetry
// mirror, attachable at runtime (EnableMetrics may race with kernels, so
// the mirror pointer is atomic).
type hotCounter struct {
	v      atomic.Uint64
	mirror atomic.Pointer[telemetry.Counter]
}

func (c *hotCounter) inc() {
	c.v.Add(1)
	if m := c.mirror.Load(); m != nil {
		m.Inc()
	}
}

func (c *hotCounter) value() uint64 { return c.v.Load() }

func (c *hotCounter) attach(m *telemetry.Counter) {
	if m != nil {
		c.mirror.Store(m)
	}
}

var (
	poolGets   hotCounter
	poolMisses hotCounter
	poolPuts   hotCounter

	gemmOps       hotCounter
	gemmFlopTotal atomic.Uint64 // raw FLOPs; mirrored as a counter

	gemmFlopCounter atomic.Pointer[telemetry.Counter]
	gemmGFLOPS      atomic.Pointer[telemetry.Gauge]
)

// recordGEMM accounts one timed GEMM: 2*m*n*k FLOPs over dur.
func recordGEMM(vol int, dur time.Duration) {
	flops := uint64(2 * vol)
	gemmOps.inc()
	gemmFlopTotal.Add(flops)
	if m := gemmFlopCounter.Load(); m != nil {
		m.Add(flops)
	}
	if g := gemmGFLOPS.Load(); g != nil && dur > 0 {
		g.Set(float64(flops) / dur.Seconds() / 1e9)
	}
}

// EnableMetrics mirrors the kernel counters into reg:
//
//	tensor_gemm_gflops              gauge   throughput of the last large GEMM
//	tensor_gemm_flops_total         counter FLOPs executed by timed GEMMs
//	tensor_gemm_ops_total           counter timed GEMM invocations
//	tensor_pool_gets_total          counter scratch-pool and workspace allocations
//	tensor_pool_misses_total        counter allocations that went to the heap
//	tensor_pool_puts_total          counter buffers returned to the scratch pool
//	tensor_workspace_bytes          gauge   slab bytes held by all workspaces
//
// Hit rate = 1 - misses/gets. A nil registry is a no-op. Safe to call
// while kernels are running; counts observed before the call are not
// replayed into the registry.
func EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	gemmGFLOPS.Store(reg.Gauge("tensor_gemm_gflops",
		"Throughput of the most recent large GEMM, in GFLOP/s."))
	gemmFlopCounter.Store(reg.Counter("tensor_gemm_flops_total",
		"Floating-point operations executed by timed GEMMs."))
	gemmOps.attach(reg.Counter("tensor_gemm_ops_total",
		"Timed GEMM invocations."))
	poolGets.attach(reg.Counter("tensor_pool_gets_total",
		"Scratch-pool GetTensor calls plus workspace allocations."))
	poolMisses.attach(reg.Counter("tensor_pool_misses_total",
		"Scratch-pool and workspace allocations that had to go to the heap."))
	poolPuts.attach(reg.Counter("tensor_pool_puts_total",
		"Buffers returned to the scratch pool."))
	g := reg.Gauge("tensor_workspace_bytes",
		"Slab bytes held by every tensor workspace, idle or in use.")
	g.Set(float64(workspaceBytes.v.Load()))
	workspaceBytes.mirror.Store(g)
}

// PoolStats reports the lifetime Get/miss/Put counts of the scratch pool
// and the workspaces together — the hit rate is 1 - misses/gets.
func PoolStats() (gets, misses, puts uint64) {
	return poolGets.value(), poolMisses.value(), poolPuts.value()
}

// GEMMStats reports how many large GEMMs ran and their total FLOPs.
func GEMMStats() (ops, flops uint64) {
	return gemmOps.value(), gemmFlopTotal.Load()
}

// HasFMAKernel reports whether the AVX2+FMA assembly micro-kernel is
// active on this CPU (false on non-amd64 builds or older hardware).
func HasFMAKernel() bool { return hasFMAKernel }
