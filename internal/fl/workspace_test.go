package fl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

func wsTestData(t *testing.T, arch model.Arch, n int) *datasets.Dataset {
	t.Helper()
	var d *datasets.Dataset
	var err error
	if arch == model.MLP {
		d, _, err = datasets.SyntheticTabular(datasets.TabularConfig{
			Classes: 5, Train: n, Test: 8, Features: 64, Sharpness: 0.8, Seed: 5})
	} else {
		d, _, err = datasets.SyntheticImages(datasets.ImageConfig{
			Classes: 5, Train: n, Test: 8, C: 3, H: 8, W: 8, Signal: 0.4, Noise: 0.3, Seed: 5})
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkspaceLegacyRoundBitIdentical: one plain FedAvg client round (a
// full batch and a remainder batch, then evaluation probes) computes the
// same bits with the step workspace, with it forced off, and with released
// buffers poisoned — every backbone, both precisions, serial and parallel
// kernels. The CIP counterpart lives in internal/core.
func TestWorkspaceLegacyRoundBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer tensor.SetPrecision(tensor.CurrentPrecision())
	round := func(t *testing.T, arch model.Arch) []float64 {
		data := wsTestData(t, arch, 40)
		net := model.NewClassifier(rand.New(rand.NewSource(7)), arch, data.In, data.NumClasses)
		c := NewLegacyClient(0, net, data, ClientConfig{Momentum: 0.9, Augment: arch != model.MLP},
			nil, rand.New(rand.NewSource(9)))
		u, err := c.TrainLocal(0, nn.FlattenParams(net.Params()))
		if err != nil {
			t.Fatal(err)
		}
		probes := append(Losses(net, data, 16), MeanLoss(net, data, 0), Evaluate(net, data, 0))
		return append(u.Params, probes...)
	}
	for _, arch := range []model.Arch{model.VGG, model.ResNet, model.DenseNet, model.MLP} {
		for _, prec := range []tensor.Precision{tensor.F64, tensor.F32} {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/%v/procs%d", arch, prec, procs), func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					tensor.SetPrecision(prec)
					restore := tensor.SetWorkspaceTestMode(true, false)
					heap := round(t, arch)
					restore()
					restore = tensor.SetWorkspaceTestMode(false, true)
					poisoned := round(t, arch)
					restore()
					// The poisoned round subsumes the plain one; -short (the
					// race run) skips the latter.
					ws := poisoned
					if !testing.Short() {
						ws = round(t, arch)
					}
					for i := range heap {
						if math.Float64bits(ws[i]) != math.Float64bits(heap[i]) {
							t.Fatalf("value %d differs between the workspace and the heap round", i)
						}
						if math.Float64bits(poisoned[i]) != math.Float64bits(heap[i]) {
							t.Fatalf("value %d differs under poisoned release (%v vs %v)", i, poisoned[i], heap[i])
						}
					}
				})
			}
		}
	}
}

// TestWorkspaceRetentionIndependentOfRoster: workspaces belong to running
// steps, not to models, so a 64-client federation trained two at a time
// leaves what a 2-client one does — at most two idle workspaces of the
// same size — and, once the federation itself is dropped, the same heap.
func TestWorkspaceRetentionIndependentOfRoster(t *testing.T) {
	// Start from an empty free list, whatever ran before; hand the
	// workspaces back afterwards.
	var held []*tensor.Workspace
	for idle, _ := tensor.WorkspaceStats(); idle > 0; idle, _ = tensor.WorkspaceStats() {
		held = append(held, tensor.AcquireWorkspace())
	}
	defer func() {
		for _, w := range held {
			w.Release()
		}
	}()

	train := func(k int) (idle int, wsBytes int64, heap uint64) {
		data := wsTestData(t, model.VGG, 16*k)
		shards := datasets.PartitionIID(data, k, rand.New(rand.NewSource(1)))
		clients := make([]Client, k)
		var initial []float64
		for i := range clients {
			net := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, data.In, data.NumClasses)
			if initial == nil {
				initial = nn.FlattenParams(net.Params())
			}
			clients[i] = NewLegacyClient(i, net, shards[i], ClientConfig{BatchSize: 16},
				nil, rand.New(rand.NewSource(int64(i))))
		}
		srv := NewServer(initial, clients...)
		srv.Workers = 2
		if err := srv.Run(2); err != nil {
			t.Fatal(err)
		}
		srv, clients, shards, data = nil, nil, nil, nil
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		idle, wsBytes = tensor.WorkspaceStats()
		return idle, wsBytes, ms.HeapAlloc
	}
	idle2, bytes2, heap2 := train(2)
	idle64, bytes64, heap64 := train(64)
	if idle2 < 1 || idle2 > 2 || idle64 < 1 || idle64 > 2 {
		t.Fatalf("idle workspaces: %d after 2 clients, %d after 64; want 1..Workers=2", idle2, idle64)
	}
	// Per workspace, not in total: on one CPU the two workers may never
	// overlap, and then a single workspace serves the whole run.
	if bytes64/int64(idle64) != bytes2/int64(idle2) {
		t.Errorf("a workspace holds %d B after 64 clients, %d B after 2: retention scales with the roster",
			bytes64/int64(idle64), bytes2/int64(idle2))
	}
	// The constant allows the second worker's workspace and GEMM panel
	// (first used only if the two workers overlapped); 62 more
	// workspaces would be twenty times that.
	one := uint64(bytes2 / int64(idle2))
	if heap64 > heap2+3*one {
		t.Errorf("live heap after 64 clients is %d B, %d B after 2: more than three %d B workspaces apart",
			heap64, heap2, one)
	}
}
