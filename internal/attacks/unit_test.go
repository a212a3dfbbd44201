package attacks

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/cip-fl/cip/internal/nn"
)

func TestSortDescending(t *testing.T) {
	xs := []float64{0.2, 0.9, 0.1, 0.5}
	sortDescending(xs)
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(xs))) {
		t.Fatalf("not sorted descending: %v", xs)
	}
}

func TestMMDLinear(t *testing.T) {
	a := [][]float64{{0, 0}, {2, 2}} // mean (1,1)
	b := [][]float64{{1, 1}}         // mean (1,1)
	if got := mmdLinear(a, b); math.Abs(got) > 1e-12 {
		t.Fatalf("equal-mean MMD = %v, want 0", got)
	}
	c := [][]float64{{4, 1}}
	if got := mmdLinear(a, c); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MMD = %v, want 3", got)
	}
	if got := mmdLinear(nil, b); got != 0 {
		t.Fatalf("empty-set MMD = %v, want 0", got)
	}
}

func TestBestThresholdSeparatesOptimally(t *testing.T) {
	// Members at {2,3,4}, non-members at {0,1,5}: the best threshold is in
	// (1,2], classifying 5 of 6 correctly.
	th := bestThreshold([]float64{2, 3, 4}, []float64{0, 1, 5})
	correct := 0
	for _, s := range []float64{2, 3, 4} {
		if s >= th {
			correct++
		}
	}
	for _, s := range []float64{0, 1, 5} {
		if s < th {
			correct++
		}
	}
	if correct != 5 {
		t.Fatalf("best threshold %v yields %d/6 correct, want 5", th, correct)
	}
}

func TestResultStringMentionsMetrics(t *testing.T) {
	r := ThresholdResult([]float64{1, 2}, []float64{-1, 0})
	s := r.String()
	for _, want := range []string{"acc=", "auc=", "precision=", "recall="} {
		if !strings.Contains(s, want) {
			t.Fatalf("Result.String() missing %q: %s", want, s)
		}
	}
}

func TestGradientNormsPositiveAndPerSample(t *testing.T) {
	f := getFixture(t)
	sub := f.members.Subset([]int{0, 1, 2})
	norms := GradientNorms(f.target, sub)
	if len(norms) != 3 {
		t.Fatalf("got %d norms for 3 samples", len(norms))
	}
	for i, n := range norms {
		if n < 0 || math.IsNaN(n) {
			t.Fatalf("norm[%d] = %v", i, n)
		}
	}
}

func TestGradientNormsMembersSmallerOnOverfit(t *testing.T) {
	// A fully memorized member has near-zero loss gradient; non-members
	// do not — the raw signal behind Pb-Bayes.
	f := getFixture(t)
	m := GradientNorms(f.target, f.members.Subset(seq(20)))
	n := GradientNorms(f.target, f.nonMembers.Subset(seq(20)))
	var ms, ns float64
	for i := range m {
		ms += m[i]
		ns += n[i]
	}
	if ms >= ns {
		t.Fatalf("member mean grad norm (%v) should be below non-members' (%v)", ms/20, ns/20)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestNewResultThresholdSemantics(t *testing.T) {
	r := newResult([]float64{1}, []float64{0}, 0.5)
	if !r.Preds[0] || r.Preds[1] {
		t.Fatalf("preds = %v, want [true false]", r.Preds)
	}
	if r.Counts.TP != 1 || r.Counts.TN != 1 {
		t.Fatalf("counts = %+v", r.Counts)
	}
}

// TestGradientNormsMatchFullBackward: asking only for parameter gradients
// leaves every norm bit-identical to the full backward pass's.
func TestGradientNormsMatchFullBackward(t *testing.T) {
	f := getFixture(t)
	d := f.members.Subset(seq(8))
	got := GradientNorms(f.target, d)
	params := f.target.Params()
	for i := 0; i < d.Len(); i++ {
		x, y := d.Batch(i, i+1)
		nn.ZeroGrads(params)
		logits, cache := f.target.Forward(x, true)
		f.target.Backward(cache, nn.SoftmaxCrossEntropy(logits, y).Grad)
		var sq float64
		for _, p := range params {
			for _, g := range p.Grad.Data {
				sq += g * g
			}
		}
		if want := math.Sqrt(sq); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: norm %v, full backward gives %v", i, got[i], want)
		}
	}
	nn.ZeroGrads(params)
}
