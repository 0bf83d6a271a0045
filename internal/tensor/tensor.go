// Package tensor provides the dense float32 tensor type used by the
// inference engine, together with the memory layouts that acceleration
// primitives disagree about (NCHW vs NHWC) and the conversions between
// them. Layout mismatches between consecutive layers are the root cause
// of the compatibility penalties that make per-layer-greedy primitive
// selection sub-optimal, so this package is the foundation of the whole
// search problem.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes a 4-D activation tensor (N, C, H, W). Fully-connected
// activations use H = W = 1. N is the batch size; the paper (and this
// reproduction) uses N = 1 throughout inference-latency experiments.
type Shape struct {
	N, C, H, W int
}

// Elems returns the number of elements the shape holds.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Bytes returns the float32 byte footprint of the shape.
func (s Shape) Bytes() int { return s.Elems() * 4 }

// Valid reports whether all dimensions are strictly positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Equal reports whether two shapes match in every dimension.
func (s Shape) Equal(o Shape) bool { return s == o }

// Tensor is a dense float32 tensor with an explicit memory layout.
// Data is stored in a single contiguous slice; the layout determines
// how (n, c, h, w) coordinates map to a linear index.
type Tensor struct {
	shape  Shape
	layout Layout
	data   []float32
}

// New allocates a zero-filled tensor with the given shape and layout.
func New(shape Shape, layout Layout) *Tensor {
	if !shape.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", shape))
	}
	return &Tensor{shape: shape, layout: layout, data: make([]float32, shape.Elems())}
}

// NewFrom wraps an existing slice. The slice length must match the shape.
func NewFrom(shape Shape, layout Layout, data []float32) *Tensor {
	if len(data) != shape.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), shape, shape.Elems()))
	}
	return &Tensor{shape: shape, layout: layout, data: data}
}

// Shape returns the tensor's shape.
func (t *Tensor) Shape() Shape { return t.shape }

// Layout returns the tensor's memory layout.
func (t *Tensor) Layout() Layout { return t.layout }

// Data returns the backing slice. Callers must respect the layout.
func (t *Tensor) Data() []float32 { return t.data }

// Index returns the linear index of (n, c, h, w) under the tensor's layout.
func (t *Tensor) Index(n, c, h, w int) int {
	s := t.shape
	switch t.layout {
	case NCHW:
		return ((n*s.C+c)*s.H+h)*s.W + w
	case NHWC:
		return ((n*s.H+h)*s.W+w)*s.C + c
	default:
		panic("tensor: unknown layout " + t.layout.String())
	}
}

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 { return t.data[t.Index(n, c, h, w)] }

// Set assigns the element at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) { t.data[t.Index(n, c, h, w)] = v }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: t.shape, layout: t.layout, data: d}
}

// FillRandom fills the tensor with values drawn uniformly from
// [-scale, scale] using the given seeded source, so model weights are
// reproducible across runs.
func (t *Tensor) FillRandom(rng *rand.Rand, scale float32) {
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ToLayout returns a tensor with identical logical contents in the
// requested layout. If the layout already matches, the receiver is
// returned unchanged (no copy). Each sample is a C x HW matrix in NCHW
// and its transpose, HW x C, in NHWC, so a conversion transposes every
// sample's block of the data slice.
func (t *Tensor) ToLayout(l Layout) *Tensor {
	if t.layout == l {
		return t
	}
	s := t.shape
	hw := s.H * s.W
	rows, cols := s.C, hw
	switch {
	case t.layout == NCHW && l == NHWC:
	case t.layout == NHWC && l == NCHW:
		rows, cols = hw, s.C
	default:
		panic("tensor: unknown layout conversion " + t.layout.String() + " -> " + l.String())
	}
	out := New(s, l)
	size := s.C * hw
	for n := 0; n < s.N; n++ {
		transpose(rows, cols, t.data[n*size:(n+1)*size], out.data[n*size:(n+1)*size])
	}
	return out
}

// transpose writes the transpose of row-major src (rows x cols) into
// dst (cols x rows).
func transpose(rows, cols int, src, dst []float32) {
	for i := 0; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference
// between two tensors with the same shape, regardless of layout.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	var maxd float64
	s := a.shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					d := math.Abs(float64(a.At(n, c, h, w)) - float64(b.At(n, c, h, w)))
					if d > maxd {
						maxd = d
					}
				}
			}
		}
	}
	return maxd
}

// AllClose reports whether every element of a and b differs by at most tol.
func AllClose(a, b *Tensor, tol float64) bool { return MaxAbsDiff(a, b) <= tol }
