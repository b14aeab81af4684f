package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) error = %v, want ErrEmpty", err)
	}
	xs := []float64{3, -1, 4, 1, 5}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -1 || mx != 5 {
		t.Errorf("Min/Max = %v/%v, want -1/5", mn, mx)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2.25, 8, 0, 4.5, 4.5, -1}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d, want %d", w.N(), len(xs))
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Mean = %v, want %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-12) {
		t.Errorf("Variance = %v, want %v", w.Variance(), Variance(xs))
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if w.Min() != mn || w.Max() != mx {
		t.Errorf("Min/Max = %v/%v, want %v/%v", w.Min(), w.Max(), mn, mx)
	}
}

func TestWelfordEmptyAndReset(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	w.Add(3)
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: merging two Welford accumulators equals accumulating the
// concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		var wa, wb, wAll Welford
		for _, x := range a {
			x = clampFinite(x)
			wa.Add(x)
			wAll.Add(x)
		}
		for _, x := range b {
			x = clampFinite(x)
			wb.Add(x)
			wAll.Add(x)
		}
		wa.Merge(wb)
		if wa.N() != wAll.N() {
			return false
		}
		if wa.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Max(math.Abs(wAll.Min()), math.Abs(wAll.Max())))
		return almostEqual(wa.Mean(), wAll.Mean(), 1e-9*scale) &&
			almostEqual(wa.Variance(), wAll.Variance(), 1e-9*scale*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Welford variance is never negative and mean stays within
// [min, max].
func TestWelfordBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		for _, x := range xs {
			w.Add(clampFinite(x))
		}
		if w.N() == 0 {
			return true
		}
		return w.Variance() >= 0 && w.Mean() >= w.Min()-1e-9 && w.Mean() <= w.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// clampFinite maps quick-generated extreme values into a numerically
// reasonable range so the property tests exercise logic, not float
// overflow.
func clampFinite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	if x > 1e9 {
		return 1e9
	}
	if x < -1e9 {
		return -1e9
	}
	return x
}
