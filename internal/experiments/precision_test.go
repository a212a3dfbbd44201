package experiments

import (
	"math"
	"slices"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/tensor"
)

// fig4AccuracyTolerance bounds |acc_f64 − acc_f32| on the quick Fig. 4
// federation. float32 rounding perturbs individual SGD trajectories, so
// the two precisions are compared as experiments, not bit patterns.
const fig4AccuracyTolerance = 0.05

// TestFig4AccuracyParityAcrossPrecisions trains the quick 2-client non-iid
// Fig. 4 federation once under the F64 policy and once under F32 and
// evaluates both global models on the held-out test set: the f32 tier's
// speed must never cost Fig. 4 fidelity.
func TestFig4AccuracyParityAcrossPrecisions(t *testing.T) {
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetPrecision(tensor.CurrentPrecision())
	acc := map[tensor.Precision]float64{}
	global := map[tensor.Precision][]float64{}
	for _, p := range []tensor.Precision{tensor.F64, tensor.F32} {
		tensor.SetPrecision(p)
		run, err := runFed(d.Train, archFor(datasets.CIFAR100, datasets.Quick), 2, 6, 1, plain{},
			fedOpts{classesPerClient: noniidClasses(d.Train.NumClasses)})
		if err != nil {
			t.Fatal(err)
		}
		acc[p], global[p] = run.utility(d.Test), run.Global
	}
	if slices.Equal(global[tensor.F64], global[tensor.F32]) {
		t.Fatal("F32 training reproduced the F64 global bit for bit; the f32 tier never ran")
	}
	if diff := math.Abs(acc[tensor.F64] - acc[tensor.F32]); diff > fig4AccuracyTolerance {
		t.Fatalf("Fig. 4 accuracy diverges across precisions: f64 %.4f vs f32 %.4f (|Δ| = %.4f > %.2f)",
			acc[tensor.F64], acc[tensor.F32], diff, fig4AccuracyTolerance)
	}
	t.Logf("Fig. 4 quick accuracy: f64 %.4f, f32 %.4f", acc[tensor.F64], acc[tensor.F32])
}
