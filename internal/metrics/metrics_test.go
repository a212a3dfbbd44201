package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinaryCounts(t *testing.T) {
	var b BinaryCounts
	// 3 TP, 1 FP, 4 TN, 2 FN.
	for i := 0; i < 3; i++ {
		b.Add(true, true)
	}
	b.Add(true, false)
	for i := 0; i < 4; i++ {
		b.Add(false, false)
	}
	for i := 0; i < 2; i++ {
		b.Add(false, true)
	}
	if got := b.Accuracy(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.7", got)
	}
	if got := b.Precision(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Precision = %v, want 0.75", got)
	}
	if got := b.Recall(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Recall = %v, want 0.6", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / 1.35
	if got := b.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
}

func TestBinaryCountsEmpty(t *testing.T) {
	var b BinaryCounts
	if b.Accuracy() != 0 || b.Precision() != 0 || b.Recall() != 0 || b.F1() != 0 {
		t.Fatal("empty counts should yield zeros, not NaN")
	}
}

func TestROCAUCPerfectAndInverted(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if got := ROCAUC(scores, labels); got != 1 {
		t.Errorf("perfect AUC = %v, want 1", got)
	}
	inv := []bool{false, false, true, true}
	if got := ROCAUC(scores, inv); got != 0 {
		t.Errorf("inverted AUC = %v, want 0", got)
	}
}

func TestROCAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Intn(2) == 0
	}
	if got := ROCAUC(scores, labels); math.Abs(got-0.5) > 0.03 {
		t.Errorf("random AUC = %v, want ≈0.5", got)
	}
}

func TestROCAUCTies(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	if got := ROCAUC(scores, labels); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("all-tied AUC = %v, want 0.5", got)
	}
}

// TestROCAUCNaNScoresRankLowest: NaN scores (a diverged model's losses)
// form one tie group below every number, as a threshold decision treats
// them; the rank loop used to spin forever on NaN == NaN being false.
func TestROCAUCNaNScoresRankLowest(t *testing.T) {
	nan := math.NaN()
	scores := []float64{0.9, nan, 0.2, nan}
	labels := []bool{true, true, false, false}
	// Ranks: the two NaNs share 1.5, 0.2 is 3, 0.9 is 4; members sum 5.5,
	// so U = 5.5 - 3 = 2.5 over 4 pairs.
	if got := ROCAUC(scores, labels); got != 0.625 {
		t.Errorf("AUC with NaN scores = %v, want 0.625", got)
	}
}

func TestEMD1DIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		a := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		return EMD1D(a, a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestEMD1DSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := make([]float64, 1+r.Intn(20))
		b := make([]float64, 1+r.Intn(20))
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64()
		}
		return math.Abs(EMD1D(a, b)-EMD1D(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestEMD1DShift(t *testing.T) {
	a := []float64{0, 1, 2, 3}
	b := []float64{2, 3, 4, 5} // a shifted by +2
	if got := EMD1D(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("EMD of 2-shift = %v, want 2", got)
	}
}

func TestEMD1DUnequalLengthsMatchesEqualCase(t *testing.T) {
	// {0,0,1,1} vs {0,1} describe the same distribution; EMD should be 0.
	if got := EMD1D([]float64{0, 0, 1, 1}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("EMD of equal distributions (different sample counts) = %v, want 0", got)
	}
	// Degenerate distributions at 0 and at 3 are 3 apart.
	if got := EMD1D([]float64{0, 0, 0}, []float64{3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("EMD of point masses = %v, want 3", got)
	}
}

func TestMeanPairwiseEMD(t *testing.T) {
	series := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	// Pairs: (0,1)=1, (0,2)=2, (1,2)=1; mean = 4/3.
	if got := MeanPairwiseEMD(series); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("MeanPairwiseEMD = %v, want 4/3", got)
	}
	if got := MeanPairwiseEMD(series[:1]); got != 0 {
		t.Errorf("single-series EMD = %v, want 0", got)
	}
}

func TestSSIMSelfIsOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 2+r.Intn(40))
		for i := range x {
			x[i] = r.Float64()
		}
		return math.Abs(SSIM(x, x, 1)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSSIMDecreasesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.Float64()
	}
	noisy := func(std float64) []float64 {
		out := make([]float64, len(x))
		for i := range out {
			out[i] = x[i] + rng.NormFloat64()*std
		}
		return out
	}
	s1 := SSIM(x, noisy(0.05), 1)
	s2 := SSIM(x, noisy(0.5), 1)
	if !(1 > s1 && s1 > s2) {
		t.Fatalf("SSIM should fall with noise: 1 > %v > %v violated", s1, s2)
	}
}

func TestSSIMBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		s := SSIM(x, y, 1)
		return s <= 1+1e-9 && s >= -1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNormalized(t *testing.T) {
	samples := []float64{0.1, 0.2, 0.9, -5, 10}
	h := Histogram(samples, 0, 1, 4)
	s := 0.0
	for _, v := range h {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("histogram sums to %v, want 1", s)
	}
	// Out-of-range samples clamp to boundary bins.
	if h[0] < 0.2 || h[3] < 0.2 {
		t.Fatalf("boundary clamping failed: %v", h)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	p := []float64{0.5, 0.5, 0, 0}
	q := []float64{0, 0, 0.5, 0.5}
	if got := OverlapCoefficient(p, q); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	if got := OverlapCoefficient(p, p); math.Abs(got-1) > 1e-12 {
		t.Errorf("self overlap = %v, want 1", got)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Std(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty Mean/Std should be 0")
	}
}
