package tensor

import "sync"

// The float32 scratch arena backs the f32 tier's kernel-local buffers (the
// packed B panel, the narrowed A operand, transADirect32's staging). It
// mirrors pool.go exactly — same size classes (poolClass), same per-class
// retention bounds (classCap), same mutex-guarded GC-immune LIFO rationale,
// same caller invariants (DESIGN.md §9) — over bare float32 slices. A
// class's capacity is 2^class ELEMENTS, so the f32 arena's resident bytes
// are half the f64 arena's at the same fill. The shared pool counters
// (PoolStats, tensor_pool_* metrics) account Gets/misses/Puts from both
// arenas.

// classList32 is one size class's float32 freelist.
type classList32 struct {
	mu   sync.Mutex
	free [][]float32
}

var scratchPools32 [maxPoolClass + 1]classList32

// getF32 returns a float32 slice of length n backed by pooled storage.
// Contents are uninitialized. Pair every getF32 with exactly one putF32
// once the buffer is dead.
func getF32(n int) []float32 {
	c := poolClass(n)
	poolGets.inc()
	if c < 0 {
		poolMisses.inc()
		return make([]float32, n)
	}
	p := &scratchPools32[c]
	p.mu.Lock()
	var s []float32
	if last := len(p.free) - 1; last >= 0 {
		s = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
	}
	p.mu.Unlock()
	if s == nil {
		poolMisses.inc()
		s = make([]float32, 1<<c)
	}
	return s[:cap(s)][:n]
}

// putF32 returns s's storage to the arena. s must have come from getF32
// and must not be used afterwards.
func putF32(s []float32) {
	c := poolClass(cap(s))
	if c < 0 || cap(s) != 1<<c {
		// Overflow allocation (or a foreign slice): let the GC have it.
		return
	}
	p := &scratchPools32[c]
	p.mu.Lock()
	if len(p.free) < classCap(c) {
		p.free = append(p.free, s)
		p.mu.Unlock()
		poolPuts.inc()
		return
	}
	p.mu.Unlock()
}
