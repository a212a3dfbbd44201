package tensor

import (
	"math/bits"
	"sync"
)

// The scratch pool hands out pooled tensors for buffers that live inside
// one kernel call (packed GEMM panels, the Aᵀ staging transpose, the f32
// tier's narrowed operands, a convolution worker's columns). Everything a
// pass keeps longer than that — activations, gradients — lives in a
// step's Workspace instead (workspace.go).
//
// Buffers are binned by power-of-two capacity; GetTensor returns a tensor
// whose backing slice comes from the smallest class that fits, and
// PutTensor returns it. The *Tensor header itself is pooled along with its
// storage, so a hit performs zero heap allocations.
//
// Each class is a small mutex-guarded LIFO rather than a sync.Pool:
// training allocates large escaping activations every step, so the GC runs
// constantly and would flush a sync.Pool right when the next minibatch
// wants its buffers back. The freelist is GC-immune and bounded (see
// classCap), so resident scratch memory is proportional to the peak number
// of concurrently live buffers, exactly like any arena.
//
// Invariants callers must keep (DESIGN.md §9.2):
//   - A pooled tensor's contents are UNINITIALIZED; call Zero if needed.
//   - After PutTensor the tensor (and anything aliasing its Data, e.g. a
//     Reshape view) must not be touched — the storage will be handed to an
//     arbitrary other goroutine.
//   - Never PutTensor a tensor that escapes to a caller.

// maxPoolClass bounds pooled buffers to 2^maxPoolClass float64s (64 MiB);
// larger requests fall through to plain allocation.
const maxPoolClass = 23

// freelist is one arena's size classes, each a mutex-guarded LIFO of idle
// buffers. The f64 arena pools *Tensor (GetTensor), the f32 arena bare
// []float32 (getF32); both share the classes (poolClass), the retention
// bounds (classCap) and the pool counters (PoolStats, tensor_pool_*
// metrics). A class's capacity is 2^class ELEMENTS, so the f32 arena's
// resident bytes are half the f64 arena's at the same fill.
type freelist[V any] [maxPoolClass + 1]struct {
	mu   sync.Mutex
	free []V
}

var (
	scratchPools   freelist[*Tensor]
	scratchPools32 freelist[[]float32]
)

// take pops class c's most recently returned buffer, if it has one.
func (f *freelist[V]) take(c int) (v V, ok bool) {
	p := &f[c]
	p.mu.Lock()
	if last := len(p.free) - 1; last >= 0 {
		v, ok = p.free[last], true
		clear(p.free[last:])
		p.free = p.free[:last]
	}
	p.mu.Unlock()
	return v, ok
}

// give returns v to class c, unless the class already retains
// classCap(c) buffers: then the GC has it.
func (f *freelist[V]) give(c int, v V) {
	p := &f[c]
	p.mu.Lock()
	if len(p.free) < classCap(c) {
		p.free = append(p.free, v)
		p.mu.Unlock()
		poolPuts.inc()
		return
	}
	p.mu.Unlock()
}

// classCap bounds how many idle buffers a class retains: small classes keep
// more (they're cheap and heavily cycled), big ones at most two so the
// arena can never pin more than a few hundred MiB even if every class
// saturates.
func classCap(c int) int {
	if c <= 17 { // ≤ 1 MiB buffers
		return 16
	}
	return 2
}

// poolClass returns the smallest class whose capacity 2^class holds n, or
// -1 when n is too large to pool.
func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxPoolClass {
		return -1
	}
	return c
}

// GetTensor returns a tensor of the given shape backed by pooled storage.
// Contents are uninitialized. Pair every GetTensor with exactly one
// PutTensor once the buffer is dead.
func GetTensor(shape ...int) *Tensor {
	n := shapeVolume(shape)
	c := poolClass(n)
	poolGets.inc()
	if c < 0 {
		poolMisses.inc()
		return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	t, ok := scratchPools.take(c)
	if !ok {
		poolMisses.inc()
		t = &Tensor{Data: make([]float64, 1<<c)}
	}
	t.Data = t.Data[:cap(t.Data)][:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// PutTensor returns t's storage to the pool. t must have come from
// GetTensor and must not be used afterwards.
func PutTensor(t *Tensor) {
	if t == nil || t.ws != nil { // a workspace tensor's storage is not ours to pool
		return
	}
	c := poolClass(cap(t.Data))
	if c < 0 || cap(t.Data) != 1<<c {
		// Overflow allocation (or a foreign tensor): let the GC have it.
		return
	}
	scratchPools.give(c, t)
}

// getF32 returns a float32 slice of length n backed by pooled storage, the
// f32 tier's scratch (packed panels, the narrowed A operand,
// transADirect32's staging). Contents are uninitialized. Pair every getF32
// with exactly one putF32 once the buffer is dead.
func getF32(n int) []float32 {
	c := poolClass(n)
	poolGets.inc()
	if c < 0 {
		poolMisses.inc()
		return make([]float32, n)
	}
	s, ok := scratchPools32.take(c)
	if !ok {
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
	scratchPools32.give(c, s)
}

// getPanels takes n elements of packed-panel scratch from P's arena:
// GetTensor's for float64, whose tensor t putPanels needs back, or
// getF32's.
func getPanels[P elem](n int) (p []P, t *Tensor) {
	if is32[P]() {
		return any(getF32(n)).([]P), nil
	}
	t = GetTensor(n)
	return any(t.Data).([]P), t
}

// putPanels returns what getPanels took to its arena.
func putPanels[P elem](p []P, t *Tensor) {
	if t != nil {
		PutTensor(t)
		return
	}
	putF32(any(p).([]float32))
}
