// Package datasets generates the synthetic stand-ins for the paper's four
// evaluation datasets (CIFAR-100, CIFAR-AUG, CH-MNIST, Purchase-50) and
// provides the partitioning utilities (iid and classes-per-client non-iid)
// used by the federated-learning experiments.
//
// The real datasets are not shippable in an offline, stdlib-only build, so
// each preset is a generator whose *regime* matches the paper's use of the
// dataset: CIFAR-100 is many-class and hard (the overfit, high-attack-
// accuracy regime), CH-MNIST is few-class and easy (the well-generalized
// regime), CIFAR-AUG is CIFAR-100 plus augmentation, and Purchase-50 is
// sparse binary tabular data. Membership inference attacks consume only the
// loss geometry of a model trained on the data, which these regimes control
// directly. See DESIGN.md §2 for the substitution rationale.
package datasets

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/tensor"
)

// Dataset is a labeled sample collection stored as one batched tensor.
type Dataset struct {
	// X holds all samples: [N, C, H, W] for images, [N, D] for tabular.
	X *tensor.Tensor
	// Y holds the integer class label of each sample.
	Y []int
	// NumClasses is the total number of classes in the task (not just the
	// classes present in this subset).
	NumClasses int
	// In describes a single sample's shape.
	In model.Input

	// order, when non-nil, tracks the composed permutation of every
	// Shuffle relative to the order the dataset had when TrackOrder was
	// called: order[i] is the pristine index of the sample now at position
	// i. Checkpointable clients use it to persist their shard's data order
	// (Shuffle composes in place, so the order at round r depends on every
	// earlier shuffle).
	order []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// SampleSize returns the number of scalars per sample.
func (d *Dataset) SampleSize() int { return d.In.Size() }

// Batch copies samples [start, end) into a fresh tensor and label slice.
func (d *Dataset) Batch(start, end int) (*tensor.Tensor, []int) {
	return d.BatchIn(nil, start, end)
}

// BatchIn is Batch allocating from ws (nil means the heap). The batch is
// what tags a training step with its workspace: everything computed from x
// is allocated beside it. Both results die at the workspace's next Reset.
func (d *Dataset) BatchIn(ws *tensor.Workspace, start, end int) (*tensor.Tensor, []int) {
	if start < 0 || end > d.Len() || start > end {
		panic(fmt.Sprintf("datasets: batch [%d,%d) out of range for %d samples", start, end, d.Len()))
	}
	ss := d.SampleSize()
	n := end - start
	var x *tensor.Tensor
	if d.In.IsImage() {
		x = ws.New(n, d.In.C, d.In.H, d.In.W)
	} else {
		x = ws.New(n, d.In.C)
	}
	copy(x.Data, d.X.Data[start*ss:end*ss])
	y := ws.Ints(n)
	copy(y, d.Y[start:end])
	return x, y
}

// SampleShape returns the shape of one sample: [C, H, W] for images, [C]
// for tabular features.
func (d *Dataset) SampleShape() []int {
	if d.In.IsImage() {
		return []int{d.In.C, d.In.H, d.In.W}
	}
	return []int{d.In.C}
}

// Subset returns a new dataset containing the samples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	ss := d.SampleSize()
	shape := append([]int{len(idx)}, d.SampleShape()...)
	x := tensor.New(shape...)
	y := make([]int, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			panic(fmt.Sprintf("datasets: subset index %d out of range for %d samples", j, d.Len()))
		}
		copy(x.Data[i*ss:(i+1)*ss], d.X.Data[j*ss:(j+1)*ss])
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y, NumClasses: d.NumClasses, In: d.In}
}

// Shuffle permutes the samples in place.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	ss := d.SampleSize()
	tmp := make([]float64, ss)
	rng.Shuffle(d.Len(), func(i, j int) {
		a := d.X.Data[i*ss : (i+1)*ss]
		b := d.X.Data[j*ss : (j+1)*ss]
		copy(tmp, a)
		copy(a, b)
		copy(b, tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
		if d.order != nil {
			d.order[i], d.order[j] = d.order[j], d.order[i]
		}
	})
}

// TrackOrder starts recording the dataset's sample order: the current
// order becomes the pristine reference, and every later Shuffle composes
// into the tracked permutation.
func (d *Dataset) TrackOrder() {
	d.order = make([]int, d.Len())
	for i := range d.order {
		d.order[i] = i
	}
}

// Order returns a copy of the tracked permutation (nil when TrackOrder was
// never called): the pristine index of the sample at each position.
func (d *Dataset) Order() []int {
	if d.order == nil {
		return nil
	}
	out := make([]int, len(d.order))
	copy(out, d.order)
	return out
}

// ApplyOrder rearranges the samples so that position i holds the sample
// that pristine position order[i] held, and adopts order as the tracked
// permutation. Restoring a checkpointed shard is the intended use: rebuild
// the shard deterministically (pristine order), TrackOrder, then ApplyOrder
// with the captured permutation.
func (d *Dataset) ApplyOrder(order []int) error {
	if d.order == nil {
		return fmt.Errorf("datasets: ApplyOrder on an untracked dataset (call TrackOrder first)")
	}
	if len(order) != d.Len() {
		return fmt.Errorf("datasets: ApplyOrder got %d indices for %d samples", len(order), d.Len())
	}
	// pos[p] is the current position of pristine sample p.
	pos := make([]int, d.Len())
	for i, p := range d.order {
		if p < 0 || p >= d.Len() {
			return fmt.Errorf("datasets: tracked order holds invalid index %d", p)
		}
		pos[p] = i
	}
	idx := make([]int, len(order))
	seen := make([]bool, d.Len())
	for i, p := range order {
		if p < 0 || p >= d.Len() || seen[p] {
			return fmt.Errorf("datasets: ApplyOrder index %d at position %d is out of range or repeated", p, i)
		}
		seen[p] = true
		idx[i] = pos[p]
	}
	re := d.Subset(idx)
	d.X = re.X
	d.Y = re.Y
	d.order = make([]int, len(order))
	copy(d.order, order)
	return nil
}

// Split divides the dataset into a prefix of n samples and the remainder.
func (d *Dataset) Split(n int) (*Dataset, *Dataset) {
	if n < 0 || n > d.Len() {
		panic(fmt.Sprintf("datasets: split point %d out of range for %d samples", n, d.Len()))
	}
	first := make([]int, n)
	second := make([]int, d.Len()-n)
	for i := range first {
		first[i] = i
	}
	for i := range second {
		second[i] = n + i
	}
	return d.Subset(first), d.Subset(second)
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	y := make([]int, len(d.Y))
	copy(y, d.Y)
	return &Dataset{X: d.X.Clone(), Y: y, NumClasses: d.NumClasses, In: d.In}
}

// Concat returns the concatenation of a and b, which must agree on shape
// and class count.
func Concat(a, b *Dataset) *Dataset {
	if a.In != b.In || a.NumClasses != b.NumClasses {
		panic(fmt.Sprintf("datasets: Concat of incompatible datasets %+v vs %+v", a.In, b.In))
	}
	shape := append([]int{a.Len() + b.Len()}, a.SampleShape()...)
	x := tensor.New(shape...)
	copy(x.Data, a.X.Data)
	copy(x.Data[len(a.X.Data):], b.X.Data)
	y := make([]int, 0, a.Len()+b.Len())
	y = append(y, a.Y...)
	y = append(y, b.Y...)
	return &Dataset{X: x, Y: y, NumClasses: a.NumClasses, In: a.In}
}

// ClassIndices returns, for each class, the sample indices with that label.
func (d *Dataset) ClassIndices() [][]int {
	out := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		out[y] = append(out[y], i)
	}
	return out
}
