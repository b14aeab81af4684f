package baseline

import (
	"fmt"

	"stsmatch/internal/plr"
	"stsmatch/internal/stats"
)

// Clinical prediction baselines. The paper cites an evaluation of
// "commonly used predictive methods to compensate respiratory motion"
// ([24]); the standard entries in that family are the no-predictor
// (last observed position, gating.LastObservedPositioner) and
// polynomial extrapolation of the recent trajectory. This file adds
// linear extrapolation over a sliding window of raw samples, which is
// the strongest simple competitor at short horizons.

// Extrapolator predicts future positions by least-squares linear
// extrapolation over the most recent Window seconds of raw samples.
// It is fed online via Observe, mirroring how the subsequence-matching
// pipeline is fed via Segmenter.Push.
type Extrapolator struct {
	// Window is the fitting window length in seconds.
	Window float64
	// Dim is the predicted dimension.
	Dim int

	buf []plr.Sample // samples within the window, time-ordered
	reg stats.LinReg
}

// NewExtrapolator builds a linear extrapolator with the given fitting
// window.
func NewExtrapolator(window float64, dim int) (*Extrapolator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("baseline: extrapolation window must be positive, got %v", window)
	}
	if dim < 0 {
		return nil, fmt.Errorf("baseline: negative dimension")
	}
	return &Extrapolator{Window: window, Dim: dim}, nil
}

// Observe feeds one sample. Samples must arrive in increasing time
// order.
func (e *Extrapolator) Observe(sm plr.Sample) error {
	if e.Dim >= len(sm.Pos) {
		return fmt.Errorf("baseline: sample has %d dims, need %d", len(sm.Pos), e.Dim+1)
	}
	if n := len(e.buf); n > 0 && sm.T <= e.buf[n-1].T {
		return fmt.Errorf("baseline: non-increasing sample time %v", sm.T)
	}
	e.buf = append(e.buf, sm.Clone())
	e.reg.Add(sm.T, sm.Pos[e.Dim])
	// Evict samples that left the window.
	cut := 0
	for cut < len(e.buf) && e.buf[cut].T < sm.T-e.Window {
		e.reg.Remove(e.buf[cut].T, e.buf[cut].Pos[e.Dim])
		cut++
	}
	if cut > 0 {
		e.buf = append(e.buf[:0], e.buf[cut:]...)
	}
	return nil
}

// Predict extrapolates the fitted line to time t. It returns false
// until at least two samples are in the window.
func (e *Extrapolator) Predict(t float64) (float64, bool) {
	if len(e.buf) < 2 {
		return 0, false
	}
	return e.reg.At(t), true
}
