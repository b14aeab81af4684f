package stats

import "math"

// LinReg is an incremental simple linear regression y = a + b*x.
// Points can be added and removed (for sliding windows) in O(1); the
// fit and its error are available at any time. This is the workhorse of
// the online PLR segmentation in internal/fsm, which needs constant
// space per stream.
//
// The zero value is an empty regression ready for use.
type LinReg struct {
	n                     int
	sx, sy, sxx, sxy, syy float64
}

// Add folds the point (x, y) into the regression.
func (r *LinReg) Add(x, y float64) {
	r.n++
	r.sx += x
	r.sy += y
	r.sxx += x * x
	r.sxy += x * y
	r.syy += y * y
}

// Remove subtracts a previously added point (x, y). Removing points
// that were never added corrupts the regression; callers own that
// invariant.
func (r *LinReg) Remove(x, y float64) {
	r.n--
	r.sx -= x
	r.sy -= y
	r.sxx -= x * x
	r.sxy -= x * y
	r.syy -= y * y
	if r.n <= 0 {
		*r = LinReg{}
	}
}

// Fit returns the intercept a and slope b of the least-squares line
// y = a + b*x. For fewer than two points, or degenerate x spread, it
// returns a horizontal line through the mean y.
func (r *LinReg) Fit() (a, b float64) {
	if r.n == 0 {
		return 0, 0
	}
	nf := float64(r.n)
	den := nf*r.sxx - r.sx*r.sx
	if r.n < 2 || math.Abs(den) < 1e-12 {
		return r.sy / nf, 0
	}
	b = (nf*r.sxy - r.sx*r.sy) / den
	a = (r.sy - b*r.sx) / nf
	return a, b
}

// Slope returns only the fitted slope: Fit's b, bit for bit, without
// the division the intercept costs.
func (r *LinReg) Slope() float64 {
	nf := float64(r.n)
	den := nf*r.sxx - r.sx*r.sx
	if r.n < 2 || math.Abs(den) < 1e-12 {
		return 0
	}
	return (nf*r.sxy - r.sx*r.sy) / den
}

// MSE returns the mean squared residual of the current fit.
func (r *LinReg) MSE() float64 {
	if r.n < 2 {
		return 0
	}
	a, b := r.Fit()
	nf := float64(r.n)
	// Sum of squared residuals via accumulated moments:
	// SSE = syy - 2a*sy - 2b*sxy + n*a^2 + 2ab*sx + b^2*sxx
	sse := r.syy - 2*a*r.sy - 2*b*r.sxy + nf*a*a + 2*a*b*r.sx + b*b*r.sxx
	if sse < 0 {
		sse = 0 // numeric noise
	}
	return sse / nf
}

// At evaluates the fitted line at x.
func (r *LinReg) At(x float64) float64 {
	a, b := r.Fit()
	return a + b*x
}
