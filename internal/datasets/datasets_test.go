package datasets

import (
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/tensor"
)

func mustImages(t *testing.T, cfg ImageConfig) (*Dataset, *Dataset) {
	t.Helper()
	train, test, err := SyntheticImages(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestSyntheticImagesShapesAndRange(t *testing.T) {
	cfg := ImageConfig{Classes: 5, Train: 50, Test: 30, C: 3, H: 6, W: 6,
		Signal: 0.4, Noise: 0.3, Seed: 1}
	train, test := mustImages(t, cfg)
	if train.Len() != 50 || test.Len() != 30 {
		t.Fatalf("sizes = %d/%d, want 50/30", train.Len(), test.Len())
	}
	if train.X.Shape[1] != 3 || train.X.Shape[2] != 6 || train.X.Shape[3] != 6 {
		t.Fatalf("train X shape = %v", train.X.Shape)
	}
	if train.X.Min() < 0 || train.X.Max() > 1 {
		t.Fatalf("pixels out of [0,1]: [%v, %v]", train.X.Min(), train.X.Max())
	}
	for _, y := range train.Y {
		if y < 0 || y >= 5 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestSyntheticImagesDeterministic(t *testing.T) {
	cfg := ImageConfig{Classes: 3, Train: 20, Test: 10, C: 1, H: 4, W: 4,
		Signal: 0.4, Noise: 0.2, Seed: 42}
	a1, _ := mustImages(t, cfg)
	a2, _ := mustImages(t, cfg)
	if !tensor.Equal(a1.X, a2.X, 0) {
		t.Fatal("same seed produced different data")
	}
	cfg.Seed = 43
	b, _ := mustImages(t, cfg)
	if tensor.Equal(a1.X, b.X, 0) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSyntheticImagesBalancedClasses(t *testing.T) {
	cfg := ImageConfig{Classes: 4, Train: 400, Test: 40, C: 1, H: 4, W: 4,
		Signal: 0.4, Noise: 0.2, Seed: 7}
	train, _ := mustImages(t, cfg)
	counts := make([]int, 4)
	for _, y := range train.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d samples, want 100", c, n)
		}
	}
}

func TestSyntheticImagesConfigValidation(t *testing.T) {
	bad := []ImageConfig{
		{Classes: 1, Train: 10, Test: 10, C: 1, H: 4, W: 4},
		{Classes: 3, Train: 0, Test: 10, C: 1, H: 4, W: 4},
		{Classes: 3, Train: 10, Test: 10, C: 0, H: 4, W: 4},
	}
	for i, cfg := range bad {
		if _, _, err := SyntheticImages(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSyntheticTabularBinary(t *testing.T) {
	train, test, err := SyntheticTabular(TabularConfig{
		Classes: 5, Train: 60, Test: 40, Features: 30, Sharpness: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 60 || test.Len() != 40 {
		t.Fatalf("sizes = %d/%d", train.Len(), test.Len())
	}
	for _, v := range train.X.Data {
		if v != 0 && v != 1 {
			t.Fatalf("tabular feature %v not binary", v)
		}
	}
	if train.In.IsImage() {
		t.Fatal("tabular dataset claims to be an image")
	}
}

func TestBatchAndSubset(t *testing.T) {
	cfg := ImageConfig{Classes: 3, Train: 12, Test: 6, C: 1, H: 2, W: 2,
		Signal: 0.4, Noise: 0.2, Seed: 3}
	train, _ := mustImages(t, cfg)
	x, y := train.Batch(2, 5)
	if x.Shape[0] != 3 || len(y) != 3 {
		t.Fatalf("batch shape = %v, labels = %d", x.Shape, len(y))
	}
	sub := train.Subset([]int{0, 11})
	if sub.Len() != 2 || sub.Y[0] != train.Y[0] || sub.Y[1] != train.Y[11] {
		t.Fatal("subset labels do not match source")
	}
	// Mutating the subset must not touch the source.
	sub.X.Data[0] = 99
	if train.X.Data[0] == 99 {
		t.Fatal("Subset shares backing data with source")
	}
}

func TestSplitAndConcatRoundTrip(t *testing.T) {
	cfg := ImageConfig{Classes: 3, Train: 10, Test: 5, C: 1, H: 2, W: 2,
		Signal: 0.4, Noise: 0.2, Seed: 4}
	train, _ := mustImages(t, cfg)
	a, b := train.Split(4)
	if a.Len() != 4 || b.Len() != 6 {
		t.Fatalf("split sizes = %d/%d, want 4/6", a.Len(), b.Len())
	}
	back := Concat(a, b)
	if !tensor.Equal(back.X, train.X, 0) {
		t.Fatal("Concat(Split()) is not the identity")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	// Build a dataset where the sample content encodes the label, then
	// check shuffling keeps (x, y) pairs aligned.
	x := tensor.New(10, 1)
	y := make([]int, 10)
	for i := 0; i < 10; i++ {
		x.Data[i] = float64(i % 3)
		y[i] = i % 3
	}
	d := &Dataset{X: x, Y: y, NumClasses: 3, In: model.Input{C: 1}}
	d.Shuffle(rand.New(rand.NewSource(5)))
	for i := 0; i < 10; i++ {
		if int(d.X.Data[i]) != d.Y[i] {
			t.Fatalf("shuffle broke (x,y) pairing at %d: x=%v y=%d", i, d.X.Data[i], d.Y[i])
		}
	}
}

func TestPartitionIID(t *testing.T) {
	cfg := ImageConfig{Classes: 4, Train: 40, Test: 8, C: 1, H: 2, W: 2,
		Signal: 0.4, Noise: 0.2, Seed: 6}
	train, _ := mustImages(t, cfg)
	shards := PartitionIID(train, 4, rand.New(rand.NewSource(1)))
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	for i, s := range shards {
		if s.Len() != 10 {
			t.Fatalf("shard %d has %d samples, want 10", i, s.Len())
		}
	}
}

func TestPartitionByClassRespectsClassBudget(t *testing.T) {
	cfg := ImageConfig{Classes: 10, Train: 200, Test: 20, C: 1, H: 2, W: 2,
		Signal: 0.4, Noise: 0.2, Seed: 7}
	train, _ := mustImages(t, cfg)
	rng := rand.New(rand.NewSource(2))
	shards := PartitionByClass(train, 5, 3, rng)
	for i, s := range shards {
		if s.Len() != 40 {
			t.Fatalf("shard %d has %d samples, want 40", i, s.Len())
		}
		seen := map[int]bool{}
		for _, y := range s.Y {
			seen[y] = true
		}
		if len(seen) > 3 {
			t.Fatalf("shard %d spans %d classes, want ≤3", i, len(seen))
		}
	}
}

func TestPartitionByClassIIDEquivalent(t *testing.T) {
	cfg := ImageConfig{Classes: 5, Train: 100, Test: 20, C: 1, H: 2, W: 2,
		Signal: 0.4, Noise: 0.2, Seed: 8}
	train, _ := mustImages(t, cfg)
	shards := PartitionByClass(train, 4, 5, rand.New(rand.NewSource(3)))
	// With all classes allowed, each shard should usually span all classes.
	total := 0
	for _, s := range shards {
		seen := map[int]bool{}
		for _, y := range s.Y {
			seen[y] = true
		}
		total += len(seen)
	}
	if total < 4*4 {
		t.Fatalf("iid-equivalent partition too concentrated: %d class-slots", total)
	}
}

func TestMembershipSplit(t *testing.T) {
	cfg := ImageConfig{Classes: 3, Train: 30, Test: 30, C: 1, H: 2, W: 2,
		Signal: 0.4, Noise: 0.2, Seed: 9}
	train, test := mustImages(t, cfg)
	m, nm := MembershipSplit(train, test, 10, rand.New(rand.NewSource(4)))
	if m.Len() != 10 || nm.Len() != 10 {
		t.Fatalf("membership split sizes = %d/%d, want 10/10", m.Len(), nm.Len())
	}
}

func TestAugmentBatchPreservesShapeAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := model.Input{C: 3, H: 6, W: 6}
	x := tensor.New(4, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	out := AugmentBatch(rng, x, in)
	if !out.SameShape(x) {
		t.Fatalf("augment changed shape %v -> %v", x.Shape, out.Shape)
	}
	if out.Min() < 0 || out.Max() > 1 {
		t.Fatalf("augment left [0,1]: [%v, %v]", out.Min(), out.Max())
	}
}

func TestAugmentTabularIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(3, 10)
	x.RandUniform(rng, 0, 1)
	out := AugmentBatch(rng, x, model.Input{C: 10})
	if out != x {
		t.Fatal("tabular augmentation should be a no-op returning the input")
	}
}

func TestLoadPresets(t *testing.T) {
	for _, p := range AllPresets() {
		t.Run(p.String(), func(t *testing.T) {
			d, err := Load(p, Quick, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d.Train.Len() == 0 || d.Test.Len() == 0 {
				t.Fatal("empty preset")
			}
			if (p == CIFARAUG) != d.Augment {
				t.Fatalf("augment flag = %v for %v", d.Augment, p)
			}
			if p == Purchase50 && d.Train.In.IsImage() {
				t.Fatal("Purchase-50 should be tabular")
			}
		})
	}
}

func TestSampleShape(t *testing.T) {
	d, err := Load(Purchase50, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Train.SampleShape(); len(got) != 1 || got[0] != d.Train.In.C {
		t.Errorf("tabular sample shape = %v", got)
	}
	img, err := Load(CHMNIST, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Train.SampleShape(); len(got) != 3 {
		t.Errorf("image sample shape = %v, want rank 3", got)
	}
}

func TestLoadFullScalePresets(t *testing.T) {
	for _, p := range AllPresets() {
		t.Run(p.String(), func(t *testing.T) {
			d, err := Load(p, Full, 1)
			if err != nil {
				t.Fatal(err)
			}
			q, err := Load(p, Quick, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d.Train.Len() <= q.Train.Len() {
				t.Fatalf("full train size %d should exceed quick %d", d.Train.Len(), q.Train.Len())
			}
			if p == CIFAR100 && d.Train.NumClasses != 100 {
				t.Fatalf("full CIFAR-100 has %d classes, want 100 (the paper's count)", d.Train.NumClasses)
			}
			if p == Purchase50 && d.Train.NumClasses != 50 {
				t.Fatalf("full Purchase-50 has %d classes, want 50", d.Train.NumClasses)
			}
		})
	}
}

func TestLoadPresetRegimes(t *testing.T) {
	// CH-MNIST preset must be easier (higher signal-to-noise) than
	// CIFAR-100: verify via within-class vs between-class distances.
	cifar, err := Load(CIFAR100, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Load(CHMNIST, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	sep := func(d *Data) float64 {
		byClass := d.Train.ClassIndices()
		ss := d.Train.SampleSize()
		sample := func(i int) []float64 { return d.Train.X.Data[i*ss : (i+1)*ss] }
		dist := func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				dd := a[i] - b[i]
				s += dd * dd
			}
			return s
		}
		var within, between float64
		var wn, bn int
		for c := 0; c < 2; c++ {
			idx := byClass[c]
			for i := 1; i < len(idx) && i < 6; i++ {
				within += dist(sample(idx[0]), sample(idx[i]))
				wn++
			}
		}
		for i := 1; i < len(byClass[1]) && i < 6; i++ {
			between += dist(sample(byClass[0][0]), sample(byClass[1][i]))
			bn++
		}
		return (between / float64(bn)) / (within / float64(wn))
	}
	if sep(ch) <= sep(cifar) {
		t.Fatalf("CH-MNIST separation ratio %v should exceed CIFAR-100's %v", sep(ch), sep(cifar))
	}
}
