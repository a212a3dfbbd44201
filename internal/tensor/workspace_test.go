package tensor

import (
	"math"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/telemetry"
)

// drainIdle empties the process-wide free list for the duration of a test
// and gives the workspaces back afterwards, so free-list assertions do not
// depend on which tests ran before.
func drainIdle(t *testing.T) {
	t.Helper()
	var held []*Workspace
	for {
		if idle, _ := WorkspaceStats(); idle == 0 {
			break
		}
		held = append(held, AcquireWorkspace())
	}
	t.Cleanup(func() {
		for _, w := range held {
			w.Release()
		}
	})
}

// TestWorkspaceSteadyState: the first pass overflows to the heap and
// counts misses; after one Reset the slab holds the whole pass, storage is
// exact-size and contiguous, headers are recycled, and nothing misses.
func TestWorkspaceSteadyState(t *testing.T) {
	w := &Workspace{}
	pass := func() (a, b *Tensor, idx []int, mask []bool) {
		a = w.New(3, 5)
		b = NewLike(a, 7)
		return a, b, w.Ints(4), w.Bools(9)
	}
	_, m0, _ := PoolStats()
	a1, _, _, _ := pass()
	if a1.Workspace() != w {
		t.Fatal("workspace tensor does not remember its workspace")
	}
	_, m1, _ := PoolStats()
	if m1 == m0 {
		t.Fatal("a cold workspace reported no misses")
	}
	w.Reset()
	if a1.Data != nil {
		t.Fatal("Reset left a released tensor's Data in place")
	}
	if got := w.bytes(); got != 8*(15+7+4)+9 {
		t.Fatalf("slabs hold %d bytes after the first pass, want exactly %d", got, 8*(15+7+4)+9)
	}

	g1, m1, _ := PoolStats()
	a, b, idx, mask := pass()
	g2, m2, _ := PoolStats()
	if g2-g1 != 4 || m2 != m1 {
		t.Fatalf("warmed pass: %d gets, %d misses; want 4 and 0", g2-g1, m2-m1)
	}
	if a != a1 {
		t.Fatal("header was not recycled")
	}
	if len(a.Data) != 15 || cap(a.Data) != 15 || len(b.Data) != 7 || len(idx) != 4 || len(mask) != 9 {
		t.Fatalf("sizes not exact: %d/%d %d %d %d", len(a.Data), cap(a.Data), len(b.Data), len(idx), len(mask))
	}
	if &a.Data[0] != &w.f64.buf[0] || &b.Data[0] != &w.f64.buf[15] {
		t.Fatal("consecutive allocations are not adjacent in the slab")
	}
	if a.Shape[0] != 3 || a.Shape[1] != 5 || b.Dims() != 1 {
		t.Fatalf("shapes %v %v", a.Shape, b.Shape)
	}

	// A larger pass overflows once, then fits.
	w.Reset()
	pass()
	big := w.New(100)
	_, m3, _ := PoolStats()
	if m3 == m2 || len(big.Data) != 100 {
		t.Fatal("request past the slab did not fall through to the heap")
	}
	w.Reset()
	pass()
	w.New(100)
	if _, m4, _ := PoolStats(); m4 != m3 {
		t.Fatal("slab did not regrow to the larger pass")
	}
}

// TestWorkspaceRewind: Rewind releases what came after the mark and keeps
// what came before it.
func TestWorkspaceRewind(t *testing.T) {
	w := &Workspace{}
	for i := 0; i < 2; i++ { // second iteration runs on the warmed slab
		x := w.New(4)
		x.Fill(7)
		m := w.Mark()
		y := w.New(6)
		w.Rewind(m)
		if y.Data != nil {
			t.Fatal("Rewind left the released tensor usable")
		}
		z := w.New(6)
		if i == 1 && (z != y || x.Data[3] != 7) {
			t.Fatal("Rewind did not recycle the pass after the mark, or clobbered the batch before it")
		}
		w.Reset()
	}
}

// TestNilWorkspaceIsTheHeap: every entry point accepts nil and behaves as
// the plain allocator, zero-filled.
func TestNilWorkspaceIsTheHeap(t *testing.T) {
	var w *Workspace
	x := w.New(2, 3)
	if x.Workspace() != nil || x.Sum() != 0 || len(w.Ints(3)) != 3 || len(w.Bools(2)) != 2 {
		t.Fatal("nil workspace did not allocate from the heap")
	}
	if y := NewLike(x, 4); y.Workspace() != nil || len(y.Data) != 4 {
		t.Fatal("NewLike of a heap tensor left the heap")
	}
	w.Rewind(w.Mark())
	w.Reset()
	w.Release()
}

// TestDerivedTensorsFollowTheirOperand: allocating operations and views
// place results in the first operand's workspace; Clone leaves it.
func TestDerivedTensorsFollowTheirOperand(t *testing.T) {
	w := &Workspace{}
	heap := New(2, 2)
	a := w.New(2, 2)
	a.Fill(1)
	for name, got := range map[string]*Tensor{
		"Reshape": a.Reshape(4), "Add": Add(a, heap), "Scale": Scale(a, 2),
		"MatMul": MatMul(a, heap), "MatMulTransA": MatMulTransA(a, heap),
		"MatMulTransB": MatMulTransB(a, heap), "Transpose": Transpose(a),
		"Im2Col": Im2Col(w.New(1, 1, 2, 2), ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}),
	} {
		if got.Workspace() != w {
			t.Errorf("%s result left the workspace", name)
		}
	}
	if Add(heap, a).Workspace() != nil || heap.Reshape(4).Workspace() != nil {
		t.Error("result of a heap first operand entered a workspace")
	}
	if c := a.Clone(); c.Workspace() != nil || c.Data[3] != 1 {
		t.Error("Clone did not copy out to the heap")
	}
}

// TestWorkspacePoison: under the poison hook released storage reads NaN
// (ints -1), so a use after Reset cannot produce plausible numbers.
func TestWorkspacePoison(t *testing.T) {
	defer SetWorkspaceTestMode(false, true)()
	w := &Workspace{}
	w.New(8)
	w.Ints(3)
	w.Reset()
	x, idx := w.New(8), w.Ints(3)
	x.Fill(1)
	idx[0] = 5
	stale := x.Data
	w.Reset()
	if !math.IsNaN(stale[0]) || !math.IsNaN(stale[7]) || idx[0] != -1 {
		t.Fatalf("released storage not poisoned: %v %v", stale, idx)
	}
}

// TestWorkspaceFreeList: Acquire reuses idle workspaces, the list never
// exceeds GOMAXPROCS, the disabled hook yields nil, and the bytes gauge
// follows slabs as they grow and are dropped.
func TestWorkspaceFreeList(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	drainIdle(t)
	reg := telemetry.NewRegistry()
	EnableMetrics(reg)
	defer workspaceBytes.mirror.Store(nil)
	gauge := reg.Gauge("tensor_workspace_bytes", "")
	_, base := WorkspaceStats()

	ws := []*Workspace{AcquireWorkspace(), AcquireWorkspace(), AcquireWorkspace()}
	for _, w := range ws {
		w.New(1000)
		w.Release()
	}
	idle, bytes := WorkspaceStats()
	if idle != 2 {
		t.Fatalf("%d idle workspaces at GOMAXPROCS 2, want 2", idle)
	}
	if bytes-base != 2*8000 || gauge.Value() != float64(bytes) {
		t.Fatalf("workspace bytes %d (gauge %v) above base %d, want two 8000-byte slabs", bytes, gauge.Value(), base)
	}
	if w := AcquireWorkspace(); w != ws[1] {
		t.Fatal("Acquire did not reuse the most recently released workspace")
	} else {
		w.Release()
	}

	restore := SetWorkspaceTestMode(true, false)
	if AcquireWorkspace() != nil {
		t.Fatal("disabled hook still handed out a workspace")
	}
	restore()
}

// TestWorkspaceWarmPassAllocatesNothing pins the zero-garbage property at
// the allocator level.
func TestWorkspaceWarmPassAllocatesNothing(t *testing.T) {
	w := &Workspace{}
	pass := func() {
		x := w.New(16, 3, 8, 8)
		y := NewLike(x, 16, 192)
		NewLike(y, 16, 10).Reshape(160)
		w.Ints(64)
		w.Bools(3072)
		w.Reset()
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("warmed workspace pass made %v heap allocations", n)
	}
}
