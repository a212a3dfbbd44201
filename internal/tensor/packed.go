package tensor

import "fmt"

// A weight matrix is the B operand of every product its layer runs: the
// forward x·Wᵀ and the input gradient g·W. A training step reuses one set
// of weights many times (both CIP channels, both Eq. 4 terms, every batch
// of a Step I pass), yet the blocked driver packs B into panels on every
// call. PackedB holds op(B) packed once, for all of its (kc, nc) blocks,
// and MatMulPackedInto hands those blocks to the driver in place of the
// per-call pack. The panels are the values the per-call pack writes, in
// the same layout, so a packed product is bit-identical to an unpacked one.

// PackedB is op(b) packed as a GEMM B operand in the panel layout of the
// tier that was active when Pack ran: nr-wide float64 panels, or nr32-wide
// float32 panels under F32 (narrowed at pack time, as the mixed path
// narrows per call). Block (pc, jc) starts at jc·k + pc·⌈ncb/w⌉·w, w the
// panel width: jc blocks before it are ncBlock columns wide (a multiple of
// w) and pc blocks before it kcBlock deep. The zero value holds nothing;
// storage is kept across Packs, so repacking allocates nothing.
type PackedB struct {
	k, n   int
	transB bool
	f32    bool
	valid  bool
	d64    []float64
	d32    []float32
}

// Pack packs op(b) — b itself (k×n), or bᵀ when transB (b is n×k) — in the
// current precision's layout, reusing p's storage.
func (p *PackedB) Pack(b *Tensor, transB bool) {
	if b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: PackedB.Pack needs a 2-D operand, got %v", b.Shape))
	}
	k, n := b.Shape[0], b.Shape[1]
	if transB {
		k, n = n, k
	}
	p.k, p.n, p.transB, p.f32, p.valid = k, n, transB, useF32(), true
	if p.f32 {
		p.d32 = resize(p.d32, k*roundUp(n, nr32))
		packBlocks(p.d32, b.Data, k, n, transB)
	} else {
		p.d64 = resize(p.d64, k*roundUp(n, nr))
		packBlocks(p.d64, b.Data, k, n, transB)
	}
}

// packBlocks packs every (kc, nc) block of op(b), k×n, into dst in P's
// panel layout, each block at its blockOffset.
func packBlocks[P elem](dst []P, b []float64, k, n int, transB bool) {
	w, _ := tier[P]()
	s := gemmShape{k: k, n: n, transB: transB}
	for jc := 0; jc < n; jc += ncBlock {
		ncb := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			packB(dst[blockOffset(k, pc, jc, ncb, w):], b, pc, jc, min(kcBlock, k-pc), ncb, s)
		}
	}
}

// Stale reports whether p must be packed before use: it holds nothing, or
// was packed for the other precision tier.
func (p *PackedB) Stale() bool { return !p.valid || p.f32 != useF32() }

// Drop marks p empty, keeping its storage for the next Pack.
func (p *PackedB) Drop() { p.valid = false }

// MatMulPackedInto computes dst = a·op(b) + bias (bias may be nil) against
// a packed B, in the tier b was packed for. dst must not alias a.
func MatMulPackedInto(dst, a *Tensor, b *PackedB, bias []float64) *Tensor {
	if !b.valid {
		panic("tensor: MatMulPackedInto on an empty PackedB")
	}
	if a.Dims() != 2 || a.Shape[1] != b.k {
		panic(fmt.Sprintf("tensor: MatMulPackedInto operand %v, want [m %d]", a.Shape, b.k))
	}
	m := a.Shape[0]
	checkDst("MatMulPackedInto", dst, m, b.n)
	if bias != nil {
		checkBias("MatMulPackedInto", bias, b.n)
	}
	gemm(dst.Data, a.Data, nil, gemmShape{m: m, k: b.k, n: b.n, transB: b.transB, bias: bias, pre: b})
	return dst
}

// blockOffset is where block (pc, jc) of a k-deep packed operand with
// panel width w starts; ncb is that block's column count.
func blockOffset(k, pc, jc, ncb, w int) int {
	return jc*k + pc*roundUp(ncb, w)
}

func roundUp(n, w int) int { return (n + w - 1) / w * w }

// packLen is the panel buffer one (kc, nc) block of a k×n B operand needs
// at panel width w: the largest block is min(k, kcBlock) deep and
// min(n, ncBlock) columns wide, padded to whole panels.
func packLen(k, n, w int) int { return min(k, kcBlock) * roundUp(min(n, ncBlock), w) }

// resize returns s with length n, reallocating only when it must grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
