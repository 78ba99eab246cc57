// Package array provides dense vector operations used as the
// micro-programming kernels of the library (paper §3.2, Table 1 "Array
// Operations"). All functions operate on []float64 and are written as tight
// loops so that higher layers (user-defined aggregates, SGD inner loops)
// can call them per row without allocation.
package array

import (
	"errors"
	"fmt"
	"math"

	"madlib/internal/core"
)

func init() {
	core.RegisterMethod(core.MethodInfo{Name: "array_ops", Title: "Array Operations", Category: core.Support})
}

// ErrDimension is returned when two vectors that must agree in length do not.
var ErrDimension = errors.New("array: dimension mismatch")

// Dot returns the inner product of two equal-length vectors.
// It panics if the lengths differ; use CheckedDot for an error return.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("array: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// CheckedDot is Dot with an error instead of a panic on length mismatch.
func CheckedDot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrDimension
	}
	return Dot(a, b), nil
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("array: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add returns a+b as a new vector.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("array: Add length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v + b[i]
	}
	return out
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("array: Sub length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// AddTo computes dst += src in place.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("array: AddTo length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-absolute-value norm of x.
func NormInf(x []float64) float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// SquaredDistance returns ||a-b||².
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("array: SquaredDistance length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b []float64) float64 { return math.Sqrt(SquaredDistance(a, b)) }

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty vector.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// AllFinite reports whether every element of x is finite (no NaN or Inf).
// MADlib's transition functions perform the same screening before
// accumulating a row.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 { // NaN for NaN and ±Inf, zero for every finite v
			return false
		}
	}
	return true
}

// OuterProductFull accumulates dst += x·xᵀ where dst is a k×k matrix stored
// row-major in a flat slice of length k*k. Every one of the k² cells is
// written. This is the v0.1alpha inner loop from the paper's §4.4: a simple
// nested loop over the full square.
func OuterProductFull(dst, x []float64) {
	k := len(x)
	if len(dst) != k*k {
		panic(fmt.Sprintf("array: OuterProductFull dst %d != %d²", len(dst), k))
	}
	for i := 0; i < k; i++ {
		xi := x[i]
		row := dst[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			row[j] += xi * x[j]
		}
	}
}

// OuterProductLower accumulates only the lower triangle (j ≤ i) of
// dst += x·xᵀ, halving the arithmetic for symmetric accumulations. This is
// the v0.3 inner loop (`triangularView<Lower>(X_transp_X) += x * trans(x)`
// in the paper's Listing 1). The product is rounded before the add (see
// OuterProductLowerBlock4, which must stay bit-equal to four of these).
func OuterProductLower(dst, x []float64) {
	k := len(x)
	if len(dst) != k*k {
		panic(fmt.Sprintf("array: OuterProductLower dst %d != %d²", len(dst), k))
	}
	for i := 0; i < k; i++ {
		xi := x[i]
		row := dst[i*k : i*k+i+1]
		for j := 0; j <= i; j++ {
			row[j] += float64(xi * x[j])
		}
	}
}

// OuterProductLowerBlock4 accumulates the lower triangle of
// dst += a·aᵀ + b·bᵀ + c·cᵀ + d·dᵀ in one pass: each cell is loaded once,
// takes the four products in argument order — ((r+aᵢaⱼ)+bᵢbⱼ)+cᵢcⱼ)+dᵢdⱼ —
// and is stored once, a quarter of the memory traffic of four
// OuterProductLower calls with the same floating-point order and so the
// same bits. The explicit float64 conversions round every product before
// its add, so an FMA-fusing GOARCH (arm64, ppc64le, s390x, riscv64) cannot
// contract x*y+z here and break that equality.
func OuterProductLowerBlock4(dst, a, b, c, d []float64) {
	k := len(a)
	if len(b) != k || len(c) != k || len(d) != k || len(dst) != k*k {
		panic(fmt.Sprintf("array: OuterProductLowerBlock4 dst %d, rows %d/%d/%d/%d", len(dst), k, len(b), len(c), len(d)))
	}
	for i := 0; i < k; i++ {
		ai, bi, ci, di := a[i], b[i], c[i], d[i]
		row := dst[i*k : i*k+i+1]
		aj, bj, cj, dj := a[:len(row)], b[:len(row)], c[:len(row)], d[:len(row)]
		for j, r := range row {
			r += float64(ai * aj[j])
			r += float64(bi * bj[j])
			r += float64(ci * cj[j])
			r += float64(di * dj[j])
			row[j] = r
		}
	}
}

// SymmetrizeLower copies the lower triangle of the k×k row-major matrix m
// into its upper triangle, completing a symmetric matrix accumulated with
// OuterProductLower.
func SymmetrizeLower(m []float64, k int) {
	if len(m) != k*k {
		panic(fmt.Sprintf("array: SymmetrizeLower len %d != %d²", len(m), k))
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			m[i*k+j] = m[j*k+i]
		}
	}
}

// OuterProductColumnMajor accumulates dst += x·xᵀ walking the destination in
// column-major order over a row-major buffer. The strided writes defeat the
// cache exactly the way the untuned reference-BLAS row-vector product did in
// MADlib v0.2.1beta (§4.4: "computing yᵀy for a row vector y is about three
// to four times slower than computing xxᵀ for a column vector x").
func OuterProductColumnMajor(dst, x []float64) {
	k := len(x)
	if len(dst) != k*k {
		panic(fmt.Sprintf("array: OuterProductColumnMajor dst %d != %d²", len(dst), k))
	}
	for j := 0; j < k; j++ {
		xj := x[j]
		for i := 0; i < k; i++ {
			dst[i*k+j] += x[i] * xj
		}
	}
}

// ArgMin returns the index of the smallest element of x, or -1 if x is empty.
func ArgMin(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] < best {
			best, bi = x[i], i
		}
	}
	return bi
}

// ArgMax returns the index of the largest element of x, or -1 if x is empty.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] > best {
			best, bi = x[i], i
		}
	}
	return bi
}
