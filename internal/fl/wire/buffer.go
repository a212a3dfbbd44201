package wire

import (
	"math/bits"
	"sync"
)

// Byte-buffer arena, mirroring the tensor scratch arena
// (internal/tensor/pool.go): power-of-two size classes, each a small
// mutex-guarded LIFO freelist. It serves the streaming decoders' payload
// heads and the compressed update bodies ReadUpdate reads whole. Nothing
// model-sized comes from here: dense bodies, partial sums and sketch rows
// are read straight into storage owned by the session that outlives the
// round (DESIGN.md §12.5). Like the tensor arena, the freelists are
// GC-immune (a sync.Pool would be flushed by the training allocator's
// constant GC pressure) and bounded per class.
//
// Invariants (same as DESIGN.md §9's arena rules):
//   - A pooled buffer's contents are UNINITIALIZED beyond what the
//     caller writes/reads into it.
//   - After PutBuffer the slice (and any alias of it) must not be
//     touched.

// maxBufClass bounds pooled buffers to 2^maxBufClass bytes (64 MiB);
// larger requests fall through to plain allocation.
const maxBufClass = 26

type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

var bufPools [maxBufClass + 1]bufClass

// bufClassCap bounds idle buffers per class: small classes cycle hard and
// are cheap to keep; big ones keep at most two.
func bufClassCap(c int) int {
	if c <= 20 { // ≤ 1 MiB buffers
		return 16
	}
	return 2
}

// bufPoolClass returns the smallest class whose capacity 2^class holds n,
// or -1 when n is too large to pool.
func bufPoolClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxBufClass {
		return -1
	}
	return c
}

// GetBuffer returns a length-n byte slice backed by pooled storage.
// Contents are uninitialized. Pair every GetBuffer with exactly one
// PutBuffer once the buffer is dead.
func GetBuffer(n int) []byte {
	c := bufPoolClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	p := &bufPools[c]
	p.mu.Lock()
	var b []byte
	if last := len(p.free) - 1; last >= 0 {
		b = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, 1<<c)
	}
	return b[:cap(b)][:n]
}

// PutBuffer returns b's storage to the pool. b should have come from
// GetBuffer and must not be used afterwards; foreign or overflow slices
// are left to the GC.
func PutBuffer(b []byte) {
	if b == nil {
		return
	}
	c := bufPoolClass(cap(b))
	if c < 0 || cap(b) != 1<<c {
		return
	}
	p := &bufPools[c]
	p.mu.Lock()
	if len(p.free) < bufClassCap(c) {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}
