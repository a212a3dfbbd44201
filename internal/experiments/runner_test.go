package experiments

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/defenses"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// bitsDigest is an FNV-1a hash over the IEEE-754 bits of v.
func bitsDigest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// runnerKinds is one tiny federation per client kind the tables use: plain,
// DP's per-client step, HDP's build override, and CIP.
func runnerKinds(d *datasets.Data, seed int64) map[string]clientFactory {
	dpStep := func(i int) fl.TrainStep {
		return defenses.NewDPStep(1.0, 1.0, 8, rand.New(rand.NewSource(seed+int64(i))))
	}
	return map[string]clientFactory{
		"plain": plain{},
		"dp":    plain{stepFor: dpStep},
		"hdp": plain{stepFor: dpStep, build: func() nn.Layer {
			return defenses.NewHDPClassifier(rand.New(rand.NewSource(seed+1)), seed+2,
				d.Train.In, 128, d.Train.NumClasses)
		}},
		"cip": cipClients{0.5},
	}
}

// TestRunnerGolden pins the runner's seeding conventions (partition from
// seed, model from seed+1, client RNGs from seed+10+i or seed+20+i, CIP's
// perturbations from core.BlendSeed) to digests recorded before the legacy
// and CIP runners were merged: 2 clients, non-iid, 2 rounds on CH-MNIST.
// The digests are exact bits, so they hold only for the AVX2+FMA kernel
// they were recorded under.
func TestRunnerGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" || !tensor.HasFMAKernel() || tensor.CurrentPrecision() != tensor.F64 {
		t.Skip("golden digests were recorded with the amd64 AVX2+FMA kernel in f64")
	}
	type golden struct{ global, utility, attacker, t uint64 }
	want := map[string]golden{
		"plain": {global: 0xa40b3e6988cc3e64, utility: 0x3fc4000000000000},
		"dp":    {global: 0x468a9c4700a98103, utility: 0x3fc5333333333333},
		"hdp":   {global: 0x4727981f67a6e8e1, utility: 0x3fc8000000000000},
		"cip": {global: 0x3292ece0d87f66e2, utility: 0x3fc0333333333333,
			attacker: 0x3fc0666666666666, t: 0x37976d0fa6bc6bb7},
	}
	d, err := datasets.Load(datasets.CHMNIST, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range runnerKinds(d, 1) {
		run, err := runFed(d.Train, model.VGG, 2, 2, 1, f, fedOpts{classesPerClient: 2})
		if err != nil {
			t.Fatal(err)
		}
		var got golden
		got.global = bitsDigest(run.Global)
		got.utility = math.Float64bits(run.utility(d.Test))
		if name == "cip" {
			got.attacker = math.Float64bits(fl.Evaluate(run.attackerNet(), d.Test, 64))
			var ts []float64
			for i := range run.Clients {
				ts = append(ts, run.cip(i).Perturbation().T.Data...)
			}
			got.t = bitsDigest(ts)
		}
		if got != want[name] {
			t.Errorf("%s: got %#x, want %#x", name, got, want[name])
		}
	}
}

// TestRunnerCrashResumeBitIdentical runs the runner's durable branch for
// both client kinds: a run killed after its second round and resumed from its
// snapshot must end bit-identical to an uninterrupted durable run.
func TestRunnerCrashResumeBitIdentical(t *testing.T) {
	d, err := datasets.Load(datasets.CHMNIST, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for _, name := range []string{"plain", "cip"} {
		t.Run(name, func(t *testing.T) {
			f := runnerKinds(d, 1)[name]
			dir := t.TempDir()
			run := func(spec *CheckpointSpec) (*fedRun, error) {
				return runFed(d.Train, model.VGG, 2, rounds, 1, f,
					fedOpts{classesPerClient: 2, ckpt: spec})
			}
			ref, err := run(&CheckpointSpec{Path: filepath.Join(dir, "ref.ckpt")})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "run.ckpt")
			if _, err := run(&CheckpointSpec{Path: path, AfterRound: faults.CrashAt(1)}); !errors.Is(err, faults.ErrCrash) {
				t.Fatalf("crashed run: err = %v, want ErrCrash", err)
			}
			var resumed []int
			got, err := run(&CheckpointSpec{Path: path, Resume: true,
				AfterRound: func(r int) error { resumed = append(resumed, r); return nil }})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(resumed, []int{2, 3}) {
				t.Fatalf("resumed run trained rounds %v, want only [2 3] after the crash", resumed)
			}
			sameBits(t, "global", got.Global, ref.Global)
			if name == "cip" {
				for i := range ref.Clients {
					sameBits(t, "client t", got.cip(i).Perturbation().T.Data, ref.cip(i).Perturbation().T.Data)
				}
			}
		})
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v: resume is not bit-identical", what, i, got[i], want[i])
		}
	}
}
