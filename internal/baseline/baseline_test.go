package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"stsmatch/internal/plr"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestResample(t *testing.T) {
	seq := plr.Sequence{
		{T: 0, Pos: []float64{0}, State: plr.EX},
		{T: 2, Pos: []float64{10}, State: plr.EOE},
		{T: 4, Pos: []float64{10}, State: plr.IN},
	}
	v, err := Resample(seq, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 5, 10, 10, 10}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-9 {
			t.Errorf("v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	if _, err := Resample(seq[:1], 5, 0); err == nil {
		t.Error("single vertex accepted")
	}
	if _, err := Resample(seq, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Resample(seq, 5, 3); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// sqrt((9+16)/2)
	if math.Abs(d-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("d = %v", d)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if d, _ := Euclidean(nil, nil); d != 0 {
		t.Error("empty distance should be 0")
	}
}

func TestWeightedEuclidean(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 1, 1}
	// Uniform discrepancy: weighting must not change the value.
	dU, err := Euclidean(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dW, err := WeightedEuclidean(a, b, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dU-dW) > 1e-12 {
		t.Errorf("uniform discrepancy: weighted %v != unweighted %v", dW, dU)
	}
	// Recency: recent-end mismatch must cost more.
	early := []float64{1, 0, 0, 0, 0, 0}
	late := []float64{0, 0, 0, 0, 0, 1}
	zero := make([]float64, 6)
	dE, _ := WeightedEuclidean(zero, early, nil, 0.5)
	dL, _ := WeightedEuclidean(zero, late, nil, 0.5)
	if dL <= dE {
		t.Errorf("recency weighting inactive: early %v late %v", dE, dL)
	}
	if _, err := WeightedEuclidean(a, b, []float64{1}, 0.5); err == nil {
		t.Error("bad weight length accepted")
	}
	if _, err := WeightedEuclidean(a, b[:2], nil, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRecencyRamp(t *testing.T) {
	w := RecencyRamp(5, 0.6)
	if w[0] != 0.6 || w[4] != 1 {
		t.Errorf("ramp ends = %v", w)
	}
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Errorf("ramp not increasing: %v", w)
		}
	}
	if got := RecencyRamp(1, 0.6); got[0] != 1 {
		t.Errorf("singleton ramp = %v", got)
	}
}

func TestDTWProperties(t *testing.T) {
	a := ramp(20)
	if d := DTW(a, a, 0); d != 0 {
		t.Errorf("DTW(a,a) = %v, want 0", d)
	}
	b := make([]float64, 20)
	copy(b, a)
	b[10] += 5
	if DTW(a, b, 0) <= 0 {
		t.Error("DTW of different series should be positive")
	}
	// Symmetry.
	if d1, d2 := DTW(a, b, 3), DTW(b, a, 3); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("DTW asymmetric: %v vs %v", d1, d2)
	}
	// Warping tolerance: a time-shifted copy is closer under DTW than
	// under Euclidean.
	shifted := make([]float64, 20)
	for i := range shifted {
		j := i - 2
		if j < 0 {
			j = 0
		}
		shifted[i] = a[j]
	}
	dtw := DTW(a, shifted, 5)
	euc, _ := Euclidean(a, shifted)
	if dtw >= euc {
		t.Errorf("DTW %v should beat Euclidean %v on shifted series", dtw, euc)
	}
	// Different lengths allowed.
	if d := DTW(a, a[:15], 0); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("different-length DTW = %v", d)
	}
	if !math.IsInf(DTW(nil, a, 0), 1) {
		t.Error("empty DTW should be +Inf")
	}
}

func TestDTWBandReachesCorner(t *testing.T) {
	// A window smaller than the length difference must still produce
	// a finite distance (band expansion).
	a := ramp(30)
	b := ramp(10)
	if d := DTW(a, b, 1); math.IsInf(d, 0) {
		t.Error("band did not expand to reach the corner")
	}
}

func TestLCSS(t *testing.T) {
	a := ramp(10)
	if d := LCSS(a, a, 0.5, 0); d != 0 {
		t.Errorf("LCSS(a,a) = %v, want 0", d)
	}
	far := make([]float64, 10)
	for i := range far {
		far[i] = 1000 + float64(i)
	}
	if d := LCSS(a, far, 0.5, 0); d != 1 {
		t.Errorf("LCSS of disjoint series = %v, want 1", d)
	}
	if d := LCSS(nil, a, 0.5, 0); d != 1 {
		t.Errorf("empty LCSS = %v, want 1", d)
	}
	// Bounds property.
	f := func(xs []float64, eps float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		eps = math.Abs(eps)
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 1
		}
		d := LCSS(xs, xs, eps, 3)
		return d >= 0 && d <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MethodEuclidean:         "euclidean",
		MethodWeightedEuclidean: "weighted-euclidean",
		MethodDTW:               "dtw",
		MethodLCSS:              "lcss",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}
