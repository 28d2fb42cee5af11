// Package tensor provides dense float64 tensors and the linear-algebra
// primitives required by the neural-network stack in internal/nn.
//
// Tensors are row-major. The package is deliberately small: it implements
// exactly the operations the paper's CNN (Fig. 5) needs — matrix
// multiplication and im2col/col2im for convolutions. Secret sharing and
// FedAvg treat model weights as flat vectors and work on Data directly.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// errShape is returned (or wrapped) when operand shapes are incompatible.
var errShape = errors.New("tensor: shape mismatch")

// New creates a zero-filled tensor with the given shape.
// A tensor with no dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// fromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func fromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d elements for shape %v (want %d)", errShape, len(data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// MustFromSlice is fromSlice that panics on error; for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := fromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// AppendShape appends the tensor's shape to dst and returns the result,
// for hot paths that want to record a shape without Shape's allocation.
func (t *Tensor) AppendShape(dst []int) []int { return append(dst, t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible in the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view sharing storage with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: reshape %v to %v", errShape, t.shape, shape)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given indices.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// transpose returns the transpose of a 2-D tensor.
func transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("%w: transpose requires rank 2, got %v", errShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	c := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.data[j*m+i] = a.data[i*n+j]
		}
	}
	return c, nil
}

// Equal reports exact elementwise equality.
func Equal(a, b *Tensor) bool {
	if !slices.Equal(a.shape, b.shape) {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports elementwise equality within absolute tolerance tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !slices.Equal(a.shape, b.shape) {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor(shape=%v, size=%d)", t.shape, len(t.data))
	}
	return fmt.Sprintf("Tensor(shape=%v, data=%v)", t.shape, t.data)
}
