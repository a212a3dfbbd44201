package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cip-fl/cip/internal/telemetry"
)

// A Workspace is a step-scoped tensor arena: everything a forward/backward
// pass allocates comes out of it and goes back in one Reset, so a training
// step leaves no tensor garbage behind.
//
// Storage is exact-size (a bump pointer over one slab per element type, no
// power-of-two rounding) and headers are recycled with it, so a warmed
// workspace serves a pass without touching the heap. A request the slab
// cannot hold falls through to the heap for that pass and the slab regrows
// to the pass's full demand at the next Reset, so the steady state is one
// slab sized to the largest pass the workspace has served.
//
// Tensors remember the workspace they came from (Tensor.Workspace), and
// every allocating operation places its result where its first operand
// lives (NewLike), so tagging a step's input batch routes the whole pass
// through the workspace by dataflow; a tensor with no workspace keeps plain
// heap behaviour. Ownership contract (DESIGN.md §9.2):
//
//   - A workspace serves one goroutine at a time; it is not synchronized.
//   - Contents of a workspace tensor are UNINITIALIZED; overwrite every
//     element or call Zero.
//   - Nothing allocated from a workspace may be touched after the Reset (or
//     Rewind past it) that follows: copy out whatever must outlive the pass.
//   - A nil *Workspace is valid everywhere and means "the heap".
type Workspace struct {
	f64   arena[float64]
	ints  arena[int]
	bools arena[bool]
	// hdrs[:nhdr] are the headers handed out since the last Reset.
	hdrs []*tensorAlloc
	nhdr int
}

// arena is one element type's bump allocator. used counts every element
// requested since the last reset — including requests that overflowed to
// the heap — so peak is the slab size that would have held the whole pass.
type arena[T any] struct {
	buf        []T
	used, peak int
}

func (a *arena[T]) get(n int) (s []T, miss bool) {
	off := a.used
	a.used += n
	a.peak = max(a.peak, a.used)
	if a.used > len(a.buf) {
		return make([]T, n), true
	}
	return a.buf[off:a.used:a.used], false
}

// live is the part of the slab handed out at or after offset from.
func (a *arena[T]) live(from int) []T {
	return a.buf[min(from, len(a.buf)):min(a.used, len(a.buf))]
}

// reset forgets every allocation and regrows the slab to the largest pass
// seen.
func (a *arena[T]) reset() {
	a.used = 0
	if a.peak > len(a.buf) {
		a.buf = make([]T, a.peak)
	}
}

// Mark is a position in a workspace's allocation sequence.
type Mark struct{ f64, ints, bools, hdrs int }

// New returns a tensor of the given shape from the workspace. Contents are
// uninitialized. On a nil workspace it is tensor.New.
func (w *Workspace) New(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	data, miss := w.f64.get(shapeVolume(shape))
	return w.header(data, shape, miss)
}

// header hands out a recycled tensor header over data and accounts the
// allocation in the pool counters.
func (w *Workspace) header(data []float64, shape []int, miss bool) *Tensor {
	if w.nhdr == len(w.hdrs) {
		a := &tensorAlloc{}
		a.t.ws, a.t.Shape = w, a.dims[:0]
		w.hdrs = append(w.hdrs, a)
		miss = true
	}
	a := w.hdrs[w.nhdr]
	w.nhdr++
	a.t.Shape = append(a.t.Shape[:0], shape...) // in place up to len(dims) dimensions
	a.t.Data = data
	countGet(miss)
	return &a.t
}

// Ints returns n uninitialized ints from the workspace (index scratch such
// as pooling argmaxes and batch labels); make([]int, n) on a nil workspace.
func (w *Workspace) Ints(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	s, miss := w.ints.get(n)
	countGet(miss)
	return s
}

// Bools returns n uninitialized bools from the workspace (clip masks);
// make([]bool, n) on a nil workspace.
func (w *Workspace) Bools(n int) []bool {
	if w == nil {
		return make([]bool, n)
	}
	s, miss := w.bools.get(n)
	countGet(miss)
	return s
}

// countGet accounts one workspace allocation in the shared pool counters
// (tensor_pool_gets_total / tensor_pool_misses_total, PoolStats).
func countGet(miss bool) {
	poolGets.inc()
	if miss {
		poolMisses.inc()
	}
}

// Mark returns the current position, for a later Rewind.
func (w *Workspace) Mark() Mark {
	if w == nil {
		return Mark{}
	}
	return Mark{f64: w.f64.used, ints: w.ints.used, bools: w.bools.used, hdrs: w.nhdr}
}

// Rewind releases everything allocated since m was taken and keeps what
// came before it — a step that runs two passes over one batch rewinds to
// the mark it took after building the batch, so only one pass is live.
func (w *Workspace) Rewind(m Mark) {
	if w == nil {
		return
	}
	if wsPoison.Load() {
		poison(w.f64.live(m.f64), math.NaN())
		poison(w.ints.live(m.ints), -1)
	}
	// Dropping Data makes a use after release fail loudly and lets go of
	// any overflow storage the header was keeping alive.
	for _, a := range w.hdrs[m.hdrs:w.nhdr] {
		a.t.Data = nil
	}
	w.f64.used, w.ints.used, w.bools.used, w.nhdr = m.f64, m.ints, m.bools, m.hdrs
}

// Reset releases every allocation, at a pass boundary where nothing from
// the workspace is live any more, and sizes the slabs for the next pass.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.Rewind(Mark{})
	before := w.bytes()
	w.f64.reset()
	w.ints.reset()
	w.bools.reset()
	if grown := w.bytes() - before; grown > 0 {
		workspaceBytes.add(grown)
	}
}

// bytes is the size of the slabs (float64 and int words, bool bytes).
func (w *Workspace) bytes() int64 {
	return int64(8*(len(w.f64.buf)+len(w.ints.buf)) + len(w.bools.buf))
}

func poison[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Workspace returns the workspace t was allocated from, nil for a heap
// tensor.
func (t *Tensor) Workspace() *Workspace { return t.ws }

// NewLike returns a tensor of the given shape allocated where like lives:
// from like's workspace (contents uninitialized) when it has one, from the
// heap exactly as New does otherwise.
func NewLike(like *Tensor, shape ...int) *Tensor { return like.ws.New(shape...) }

// idleWorkspaces is the process-wide free list steps draw from. A step
// holds a workspace only while it runs, so the list never exceeds the
// number of steps that ran concurrently; Release additionally caps it at
// GOMAXPROCS so a burst of parallelism cannot pin arenas forever.
var idleWorkspaces struct {
	mu   sync.Mutex
	list []*Workspace
}

// AcquireWorkspace takes an idle workspace, or a new empty one. Pair it
// with Release.
func AcquireWorkspace() *Workspace {
	if wsDisabled.Load() {
		return nil
	}
	idleWorkspaces.mu.Lock()
	defer idleWorkspaces.mu.Unlock()
	if last := len(idleWorkspaces.list) - 1; last >= 0 {
		w := idleWorkspaces.list[last]
		idleWorkspaces.list[last] = nil
		idleWorkspaces.list = idleWorkspaces.list[:last]
		return w
	}
	return &Workspace{}
}

// Release resets w and returns it to the free list. w must not be used
// afterwards.
func (w *Workspace) Release() {
	if w == nil {
		return
	}
	w.Reset()
	idleWorkspaces.mu.Lock()
	keep := len(idleWorkspaces.list) < runtime.GOMAXPROCS(0)
	if keep {
		idleWorkspaces.list = append(idleWorkspaces.list, w)
	}
	idleWorkspaces.mu.Unlock()
	if !keep {
		workspaceBytes.add(-w.bytes())
	}
}

// WorkspaceStats reports how many workspaces sit idle on the free list and
// the slab bytes held by all workspaces, idle or in use.
func WorkspaceStats() (idle int, bytes int64) {
	idleWorkspaces.mu.Lock()
	idle = len(idleWorkspaces.list)
	idleWorkspaces.mu.Unlock()
	return idle, workspaceBytes.v.Load()
}

// workspaceBytes backs the tensor_workspace_bytes gauge.
var workspaceBytes mirroredGauge

// mirroredGauge is an always-on atomic level with an optional telemetry
// mirror, the gauge counterpart of hotCounter.
type mirroredGauge struct {
	v      atomic.Int64
	mirror atomic.Pointer[telemetry.Gauge]
}

func (b *mirroredGauge) add(delta int64) {
	v := b.v.Add(delta)
	if g := b.mirror.Load(); g != nil {
		g.Set(float64(v))
	}
}

// Test hooks. Tests in other packages need them, so they are exported;
// nothing outside a test may call them.
var wsDisabled, wsPoison atomic.Bool

// SetWorkspaceTestMode makes AcquireWorkspace return nil (disabled: every
// step runs on the heap, the reference the bit-identity tests compare
// against) and/or makes every release overwrite the released storage with
// NaN (poison: a read after Reset cannot go unnoticed). It returns a func
// restoring the previous mode.
func SetWorkspaceTestMode(disabled, poison bool) (restore func()) {
	d, p := wsDisabled.Swap(disabled), wsPoison.Swap(poison)
	return func() { wsDisabled.Store(d); wsPoison.Store(p) }
}
