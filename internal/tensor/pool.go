package tensor

import (
	"math/bits"
	"sync"
)

// The scratch pool hands out pooled tensors for buffers that live inside
// one kernel call (packed GEMM panels, the Aᵀ staging transpose, the f32
// tier's narrowed operands). Everything a pass keeps longer than that —
// activations, im2col columns, gradients — lives in a step's Workspace
// instead (workspace.go).
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

// classList is one size class's freelist.
type classList struct {
	mu   sync.Mutex
	free []*Tensor
}

var scratchPools [maxPoolClass + 1]classList

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
	p := &scratchPools[c]
	p.mu.Lock()
	var t *Tensor
	if last := len(p.free) - 1; last >= 0 {
		t = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
	}
	p.mu.Unlock()
	if t == nil {
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
	p := &scratchPools[c]
	p.mu.Lock()
	if len(p.free) < classCap(c) {
		p.free = append(p.free, t)
		p.mu.Unlock()
		poolPuts.inc()
		return
	}
	p.mu.Unlock()
}
