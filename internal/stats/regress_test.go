package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinRegExactLine(t *testing.T) {
	var r LinReg
	for x := 0.0; x < 10; x++ {
		r.Add(x, 3+2*x)
	}
	a, b := r.Fit()
	if !almostEqual(a, 3, 1e-9) || !almostEqual(b, 2, 1e-9) {
		t.Errorf("Fit = (%v, %v), want (3, 2)", a, b)
	}
	if mse := r.MSE(); !almostEqual(mse, 0, 1e-9) {
		t.Errorf("MSE = %v, want 0", mse)
	}
	if got := r.At(20); !almostEqual(got, 43, 1e-9) {
		t.Errorf("At(20) = %v, want 43", got)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	var r LinReg
	a, b := r.Fit()
	if a != 0 || b != 0 {
		t.Errorf("empty Fit = (%v, %v), want (0, 0)", a, b)
	}
	r.Add(5, 7)
	a, b = r.Fit()
	if !almostEqual(a, 7, 1e-12) || b != 0 {
		t.Errorf("single-point Fit = (%v, %v), want (7, 0)", a, b)
	}
	// All x identical: horizontal line through mean y.
	r.Reset()
	r.Add(2, 1)
	r.Add(2, 3)
	a, b = r.Fit()
	if !almostEqual(a, 2, 1e-12) || b != 0 {
		t.Errorf("degenerate-x Fit = (%v, %v), want (2, 0)", a, b)
	}
}

func TestLinRegSlidingWindowMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type pt struct{ x, y float64 }
	var pts []pt
	for i := 0; i < 50; i++ {
		pts = append(pts, pt{float64(i) * 0.1, 5 - 3*float64(i)*0.1 + rng.NormFloat64()})
	}
	const win = 10
	var sliding LinReg
	for i, p := range pts {
		sliding.Add(p.x, p.y)
		if i >= win {
			old := pts[i-win]
			sliding.Remove(old.x, old.y)
		}
		if i < win-1 {
			continue
		}
		var fresh LinReg
		for _, q := range pts[i-win+1 : i+1] {
			fresh.Add(q.x, q.y)
		}
		sa, sb := sliding.Fit()
		fa, fb := fresh.Fit()
		if !almostEqual(sa, fa, 1e-6) || !almostEqual(sb, fb, 1e-6) {
			t.Fatalf("at %d: sliding (%v,%v) != fresh (%v,%v)", i, sa, sb, fa, fb)
		}
		if !almostEqual(sliding.MSE(), fresh.MSE(), 1e-6) {
			t.Fatalf("at %d: sliding MSE %v != fresh %v", i, sliding.MSE(), fresh.MSE())
		}
	}
}

func TestLinRegRemoveToEmptyResets(t *testing.T) {
	var r LinReg
	r.Add(1, 2)
	r.Remove(1, 2)
	if r.N() != 0 {
		t.Errorf("N = %d, want 0", r.N())
	}
	a, b := r.Fit()
	if a != 0 || b != 0 {
		t.Errorf("after removal Fit = (%v, %v), want zeros", a, b)
	}
}

// Property: for points exactly on a line, the fit recovers the line
// regardless of slope/intercept, and the slope accessor agrees.
func TestLinRegRecoversLineProperty(t *testing.T) {
	f := func(a8, b8 int8, n8 uint8) bool {
		a := float64(a8) / 4
		b := float64(b8) / 4
		n := int(n8%20) + 2
		var r LinReg
		for i := 0; i < n; i++ {
			x := float64(i) * 0.25
			r.Add(x, a+b*x)
		}
		fa, fb := r.Fit()
		return almostEqual(fa, a, 1e-6) && almostEqual(fb, b, 1e-6) &&
			almostEqual(r.Slope(), b, 1e-6) && r.MSE() < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinRegMSENonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r LinReg
	for i := 0; i < 100; i++ {
		r.Add(rng.Float64()*10, rng.NormFloat64())
		if r.MSE() < 0 {
			t.Fatalf("negative MSE at %d", i)
		}
		if math.IsNaN(r.RMSE()) {
			t.Fatalf("NaN RMSE at %d", i)
		}
	}
}

// TestLinRegSlopeIsFitSlope: Slope skips the intercept's division but
// must return Fit's b bit for bit — on n = 0, 1 and 2, on identical x
// values (den under 1e-12), and on a window slid through many Add and
// Remove pairs, where the accumulated sums carry rounding residue.
func TestLinRegSlopeIsFitSlope(t *testing.T) {
	same := func(at string, r *LinReg) {
		t.Helper()
		if _, b := r.Fit(); math.Float64bits(r.Slope()) != math.Float64bits(b) {
			t.Fatalf("%s: Slope %v (%x), Fit's b %v (%x)", at, r.Slope(), math.Float64bits(r.Slope()), b, math.Float64bits(b))
		}
	}
	var r LinReg
	same("n=0", &r)
	r.Add(1.5, -2)
	same("n=1", &r)
	r.Add(2.25, 7)
	same("n=2", &r)
	r.Reset()
	for i := range 5 {
		r.Add(3, float64(i))
		same("identical x", &r)
	}

	rng := rand.New(rand.NewSource(7))
	const win = 15
	xs, ys := make([]float64, 0, 5000), make([]float64, 0, 5000)
	r.Reset()
	x := 1e4 * rng.Float64()
	for i := range 5000 {
		x += 1.0/30 + rng.Float64()/100
		y := 20*math.Sin(x) + rng.NormFloat64()
		if i%97 == 0 {
			y += 1e3 * rng.NormFloat64() // a spike the sums keep residue of
		}
		xs, ys = append(xs, x), append(ys, y)
		r.Add(x, y)
		if i >= win {
			r.Remove(xs[i-win], ys[i-win])
		}
		same("sliding window", &r)
	}
}
