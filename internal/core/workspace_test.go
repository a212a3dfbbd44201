package core

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

// wsShard builds one client's local data for arch: 44 samples, so a round
// is a full batch of 32, a remainder batch of 8, and a 4-sample
// calibration split.
func wsShard(t testing.TB, arch model.Arch) *datasets.Dataset {
	t.Helper()
	var d *datasets.Dataset
	var err error
	if arch == model.MLP {
		d, _, err = datasets.SyntheticTabular(datasets.TabularConfig{
			Classes: 5, Train: 44, Test: 8, Features: 64, Sharpness: 0.8, Seed: 5})
	} else {
		d, _, err = datasets.SyntheticImages(datasets.ImageConfig{
			Classes: 5, Train: 44, Test: 8, C: 3, H: 8, W: 8, Signal: 0.4, Noise: 0.3, Seed: 5})
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wsRound trains one fresh CIP client for one round (Step I, calibration,
// Step II with both Eq. 4 terms) and returns its flat parameters and t.
func wsRound(t testing.TB, arch model.Arch) (params, pert []float64) {
	t.Helper()
	shard := wsShard(t, arch)
	dual := NewDualChannelModel(rand.New(rand.NewSource(7)), arch, shard.In, shard.NumClasses)
	cfg := TrainConfig{Alpha: 0.9, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02,
		Momentum: 0.9, Augment: arch != model.MLP}
	c := NewClient(0, dual, shard, cfg, BlendSeed(7, 0), rand.New(rand.NewSource(9)))
	u, err := c.TrainLocal(0, nn.FlattenParams(dual.Params()))
	if err != nil {
		t.Fatal(err)
	}
	return u.Params, append([]float64(nil), c.Perturbation().T.Data...)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWorkspaceRoundBitIdentical: a full client round computes the same
// bits with the step workspace and packed weights, with both forced off
// (every tensor on the heap and every product packing its weights per
// call, as before either existed), and with every released buffer
// poisoned with NaN — for every backbone family, both precisions, serial
// and parallel kernels. A pass that read anything after its Reset, relied
// on fresh storage being zero, leaked a workspace tensor into model state,
// or read weights packed before an optimizer step would diverge or go
// non-finite here. `make check` runs this under the race detector.
func TestWorkspaceRoundBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer SetTrainingPrecision(tensor.CurrentPrecision())
	for _, arch := range []model.Arch{model.VGG, model.ResNet, model.DenseNet, model.MLP} {
		for _, prec := range []tensor.Precision{tensor.F64, tensor.F32} {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/%v/procs%d", arch, prec, procs), func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					SetTrainingPrecision(prec)

					restore := tensor.SetWorkspaceTestMode(true, false)
					unpacked := nn.SetPackingTestMode(true)
					heapP, heapT := wsRound(t, arch)
					unpacked()
					restore()
					restore = tensor.SetWorkspaceTestMode(false, true)
					poisonP, poisonT := wsRound(t, arch)
					restore()
					// The poisoned round subsumes the plain one; -short (the
					// race run) skips the latter.
					if !testing.Short() {
						if wsP, wsT := wsRound(t, arch); !sameBits(wsP, heapP) || !sameBits(wsT, heapT) {
							t.Fatal("round with the workspace differs from the heap round")
						}
					}
					if !sameBits(poisonP, heapP) || !sameBits(poisonT, heapT) {
						t.Fatal("round under poisoned release differs from the heap round")
					}
					for _, v := range append(poisonP, poisonT...) {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatal("poisoned storage reached the model")
						}
					}
				})
			}
		}
	}
}

// TestStepIISteadyStateAllocation: once warmed, a Step II VGG batch (two
// dual-channel forward/backward pairs over 32 samples) takes every tensor
// from the workspace — zero misses — and what still reaches the heap
// (cache structs, the two query models, the shuffle buffer) stays under a
// small fixed budget, orders of magnitude below the pass's tensor volume.
func TestStepIISteadyStateAllocation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shard, _ := wsShard(t, model.VGG).Split(32)
	dual := NewDualChannelModel(rand.New(rand.NewSource(7)), model.VGG, shard.In, shard.NumClasses)
	m := NewCIPModel(dual, NewPerturbation(3, shard.SampleShape(), 0, 1).T, 0.9)
	cfg := TrainConfig{Alpha: 0.9, LambdaM: 0.3}
	opt := &nn.SGD{LR: 0.01, Momentum: 0.9}
	rng := rand.New(rand.NewSource(1))
	step := func() { StepIILearnModel(m, shard, cfg, opt, rng) }
	step() // sizes the slab, creates the momentum buffers
	step() // a zero query and a guess query alternate across calls; both are warm now

	_, misses0, _ := tensor.PoolStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	mallocs := testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&after)
	_, misses1, _ := tensor.PoolStats()

	if misses1 != misses0 {
		t.Errorf("%d workspace/pool misses in %d warmed steps, want 0", misses1-misses0, runs+1)
	}
	const budgetBytes, budgetMallocs = 64 << 10, 200
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if perStep > budgetBytes || mallocs > budgetMallocs {
		t.Errorf("warmed Step II batch allocated %.0f B in %.0f objects, budget %d B / %d objects",
			perStep, mallocs, budgetBytes, budgetMallocs)
	}
	if _, bytes := tensor.WorkspaceStats(); float64(bytes) < 100*perStep {
		t.Errorf("workspace holds %d B against %.0f B/step of garbage: the pass is not running in it", bytes, perStep)
	}
}

// TestStepISteadyStateAllocation: once warmed, a Step I pass over two VGG
// batches takes every tensor from the workspace, repacks its weights into
// the storage the first pass left on them, and touches no parameter
// gradient.
func TestStepISteadyStateAllocation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shard, _ := wsShard(t, model.VGG).Split(40)
	dual := NewDualChannelModel(rand.New(rand.NewSource(7)), model.VGG, shard.In, shard.NumClasses)
	m := NewCIPModel(dual, NewPerturbation(3, shard.SampleShape(), 0, 1).T, 0.9)
	cfg := TrainConfig{Alpha: 0.9, LambdaT: 1e-6, PerturbLR: 0.02}
	rng := rand.New(rand.NewSource(1))
	step := func() { StepIGeneratePerturbation(m, shard, cfg, rng) }
	step()

	for _, p := range m.Params() {
		p.Grad.Fill(0.5) // finite: accumulating into NaN would keep its bits
	}
	poison := nn.FlattenGrads(m.Params())
	_, misses0, _ := tensor.PoolStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	mallocs := testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&after)
	_, misses1, _ := tensor.PoolStats()

	if misses1 != misses0 {
		t.Errorf("%d workspace/pool misses in %d warmed passes, want 0", misses1-misses0, runs+1)
	}
	const budgetBytes, budgetMallocs = 16 << 10, 50
	perPass := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if perPass > budgetBytes || mallocs > budgetMallocs {
		t.Errorf("warmed Step I pass allocated %.0f B in %.0f objects, budget %d B / %d objects",
			perPass, mallocs, budgetBytes, budgetMallocs)
	}
	if !sameBits(nn.FlattenGrads(m.Params()), poison) {
		t.Error("Step I touched a parameter gradient")
	}
}
