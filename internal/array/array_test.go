package array

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"ones", []float64{1, 1, 1}, []float64{1, 1, 1}, 3},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"mixed", []float64{1, -2, 3}, []float64{4, 5, -6}, 4 - 10 - 18},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dot(tc.a, tc.b); got != tc.want {
				t.Fatalf("Dot(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCheckedDot(t *testing.T) {
	if _, err := CheckedDot([]float64{1}, []float64{1, 2}); err != ErrDimension {
		t.Fatalf("want ErrDimension, got %v", err)
	}
	got, err := CheckedDot([]float64{2, 3}, []float64{4, 5})
	if err != nil || got != 23 {
		t.Fatalf("CheckedDot = %v, %v", got, err)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, y)
	want := []float64{3, 4, 5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{1.5, 2, 2.5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Scale got %v want %v", y, want)
		}
	}
	s := Add([]float64{1, 2}, []float64{3, 4})
	if s[0] != 4 || s[1] != 6 {
		t.Fatalf("Add got %v", s)
	}
	d := Sub([]float64{1, 2}, []float64{3, 4})
	if d[0] != -2 || d[1] != -2 {
		t.Fatalf("Sub got %v", d)
	}
}

func TestAddTo(t *testing.T) {
	dst := []float64{1, 2}
	AddTo(dst, []float64{10, 20})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("AddTo got %v", dst)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := Norm1(x); got != 7 {
		t.Fatalf("Norm1 = %v", got)
	}
	if got := NormInf(x); got != 4 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if got := SquaredDistance(a, b); got != 25 {
		t.Fatalf("SquaredDistance = %v", got)
	}
	if got := Distance(a, b); got != 5 {
		t.Fatalf("Distance = %v", got)
	}
}

func TestSumMean(t *testing.T) {
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Fatal("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
}

func TestOuterProductVariantsAgree(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	k := len(x)
	full := make([]float64, k*k)
	lower := make([]float64, k*k)
	colMajor := make([]float64, k*k)
	OuterProductFull(full, x)
	OuterProductLower(lower, x)
	SymmetrizeLower(lower, k)
	OuterProductColumnMajor(colMajor, x)
	for i := 0; i < k*k; i++ {
		if full[i] != lower[i] {
			t.Fatalf("lower+symmetrize disagrees with full at %d: %v vs %v", i, lower[i], full[i])
		}
		if full[i] != colMajor[i] {
			t.Fatalf("column-major disagrees with full at %d", i)
		}
	}
	// Spot-check a value: (2nd row, 3rd col) = x[1]*x[2] = 6.
	if full[1*k+2] != 6 {
		t.Fatalf("outer product cell wrong: %v", full[1*k+2])
	}
}

func TestOuterProductAccumulates(t *testing.T) {
	x := []float64{1, 2}
	dst := make([]float64, 4)
	OuterProductFull(dst, x)
	OuterProductFull(dst, x)
	if dst[0] != 2 || dst[3] != 8 {
		t.Fatalf("accumulation wrong: %v", dst)
	}
}

// The blocked kernel must equal four rank-1 updates bit for bit: linregr's
// batch generation relies on it to reproduce v0.3 exactly.
func TestOuterProductLowerBlock4MatchesRankOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 2, 7, 40} {
		rows := make([][]float64, 4)
		for r := range rows {
			rows[r] = make([]float64, k)
			for i := range rows[r] {
				// Mixed magnitudes so every add actually rounds.
				rows[r][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		want := make([]float64, k*k)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		got := Clone(want)
		for _, x := range rows {
			OuterProductLower(want, x)
		}
		OuterProductLowerBlock4(got, rows[0], rows[1], rows[2], rows[3])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d cell %d: blocked %v != rank-1 %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestOuterProductLowerBlock4PanicsOnRagged(t *testing.T) {
	x, short := make([]float64, 3), make([]float64, 2)
	for name, call := range map[string]func(){
		"short row": func() { OuterProductLowerBlock4(make([]float64, 9), x, x, short, x) },
		"long row":  func() { OuterProductLowerBlock4(make([]float64, 4), short, short, short, x) },
		"dst":       func() { OuterProductLowerBlock4(make([]float64, 8), x, x, x, x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

func TestArgMinArgMax(t *testing.T) {
	x := []float64{3, 1, 2}
	if got := ArgMin(x); got != 1 {
		t.Fatalf("ArgMin = %d", got)
	}
	if got := ArgMax(x); got != 0 {
		t.Fatalf("ArgMax = %d", got)
	}
	if ArgMin(nil) != -1 || ArgMax(nil) != -1 {
		t.Fatal("empty vector should return -1")
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotPropertySymmetry(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			if math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 ||
				math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true // skip overflow-prone draws
			}
		}
		return almostEq(Dot(a[:], b[:]), Dot(b[:], a[:]), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ||x||₂² equals Dot(x,x).
func TestNormDotProperty(t *testing.T) {
	f := func(a [8]float64) bool {
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological draws
			}
		}
		n := Norm2(a[:])
		return almostEq(n*n, Dot(a[:], a[:]), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangular accumulation + symmetrize equals the full product for
// random vectors (the v0.3 vs v0.1alpha equivalence the paper relies on).
func TestOuterProductTriangularProperty(t *testing.T) {
	f := func(a [6]float64) bool {
		k := len(a)
		full := make([]float64, k*k)
		lower := make([]float64, k*k)
		OuterProductFull(full, a[:])
		OuterProductLower(lower, a[:])
		SymmetrizeLower(lower, k)
		for i := range full {
			if full[i] != lower[i] && !(math.IsNaN(full[i]) && math.IsNaN(lower[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float64, 256)
	y := make([]float64, 256)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(256 - i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkOuterProductFull(b *testing.B) {
	x := make([]float64, 80)
	dst := make([]float64, 80*80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OuterProductFull(dst, x)
	}
}

func BenchmarkOuterProductLower(b *testing.B) {
	x := make([]float64, 80)
	dst := make([]float64, 80*80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OuterProductLower(dst, x)
	}
}

func BenchmarkOuterProductLowerBlock4(b *testing.B) {
	x := make([]float64, 80)
	dst := make([]float64, 80*80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OuterProductLowerBlock4(dst, x, x, x, x)
	}
}

func BenchmarkOuterProductColumnMajor(b *testing.B) {
	x := make([]float64, 80)
	dst := make([]float64, 80*80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OuterProductColumnMajor(dst, x)
	}
}
