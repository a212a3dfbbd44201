// Package tensor provides dense float64 tensors and the numeric kernels
// (parallel matmul, im2col, reductions, initializers) that the neural
// network stack in internal/nn is built on.
//
// Tensors are row-major, backed by a flat []float64, and carry an explicit
// shape. All operations either allocate a fresh result or write into a
// caller-supplied destination; no operation mutates its inputs unless the
// name says so (e.g. AddInPlace).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the flat row-major backing store; len(Data) == product(Shape).
	Data []float64

	// ws is the workspace the tensor was allocated from, nil for a heap
	// tensor. Operations that allocate a result place it in their first
	// operand's workspace (NewLike).
	ws *Workspace
}

// panicNegDim reports a negative dimension. It deliberately takes only the
// offending value: formatting the whole shape slice would force every
// variadic call site of New/GetTensor to heap-allocate its argument.
func panicNegDim(d int) {
	panic(fmt.Sprintf("tensor: negative dimension %d in shape", d))
}

// shapeVolume validates shape and returns its element count.
func shapeVolume(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegDim(d)
		}
		n *= d
	}
	return n
}

// tensorAlloc co-locates a tensor header with inline shape storage so New
// costs two heap objects (header+shape, data) instead of three.
type tensorAlloc struct {
	t    Tensor
	dims [4]int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := shapeVolume(shape)
	if len(shape) <= len(tensorAlloc{}.dims) {
		a := &tensorAlloc{}
		a.t.Shape = a.dims[:copy(a.dims[:len(shape)], shape)]
		a.t.Data = make([]float64, n)
		return &a.t
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		// Format the copy: formatting shape itself would make every call
		// site heap-allocate its variadic argument (see panicNegDim).
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)",
			len(data), t.Shape, t.Size()))
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy on the heap, whatever workspace t lives in: it
// is how a value leaves a workspace.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume. The backing
// data is shared, and so is the workspace: the view's header comes from it
// and tensors derived from the view keep allocating there.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if t.ws == nil {
		return FromSlice(t.Data, shape...)
	}
	if n := shapeVolume(shape); n != len(t.Data) {
		panic(fmt.Sprintf("tensor: data length %d does not match reshape volume %d", len(t.Data), n))
	}
	return t.ws.header(t.Data, shape, false)
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	assertSameShape("Add", a, b)
	out := NewLike(a, a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	out := NewLike(a, a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// AddInPlace adds b into a elementwise.
func AddInPlace(a, b *Tensor) {
	assertSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AxpyInPlace computes a += alpha*b elementwise, through the FMA axpy
// kernel where the CPU has one.
func AxpyInPlace(a *Tensor, alpha float64, b *Tensor) {
	assertSameShape("AxpyInPlace", a, b)
	axpyRow(a.Data, b.Data, alpha)
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Tensor, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// ClampInPlace clips every element of a into [lo, hi].
func ClampInPlace(a *Tensor, lo, hi float64) {
	for i, v := range a.Data {
		if v < lo {
			a.Data[i] = lo
		} else if v > hi {
			a.Data[i] = hi
		}
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// L1Norm returns the sum of absolute values.
func (t *Tensor) L1Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += math.Abs(v)
	}
	return s
}

// L2Norm returns the Euclidean norm.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	assertSameShape("Dot", a, b)
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// RandUniform fills t with samples from U[lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// RandNormal fills t with samples from N(mean, std²).
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = mean + rng.NormFloat64()*std
	}
}

// HeInit fills t with He-normal initialization for a layer with the given
// fan-in, the standard init for ReLU networks.
func (t *Tensor) HeInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, 0, std)
}

// Equal reports whether a and b have the same shape and elementwise values
// within tolerance tol.
func Equal(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values),
// useful in test failures.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}
