package core

import (
	"context"
	"fmt"
)

// Online parameter adaptation — the second half of the paper's tuning
// future work: "learn the proper parameter settings from training data
// and dynamically adjust their values during online procedures."
//
// The clinically meaningful control target is prediction *coverage*:
// the treatment system needs a prediction on a known fraction of
// frames, and the distance threshold epsilon is the knob that trades
// coverage against accuracy (Figure 9). CoverageController is a small
// integral controller that nudges epsilon after every prediction
// attempt to hold a target coverage, bounded to a safe range.

// CoverageController adapts Params.DistThreshold online.
type CoverageController struct {
	// Target is the desired fraction of attempts that yield a
	// prediction (e.g. 0.85).
	Target float64
	// MinEps and MaxEps bound the threshold; accuracy guarantees
	// below MinEps and availability above MaxEps are both illusory.
	MinEps, MaxEps float64
	// Gain scales the per-observation adjustment (default 0.05 when
	// zero at first use).
	Gain float64

	eps      float64
	attempts int
	hits     int
}

// NewCoverageController starts the controller at the given epsilon.
func NewCoverageController(target, startEps, minEps, maxEps float64) (*CoverageController, error) {
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("core: coverage target must be in (0,1), got %v", target)
	}
	if minEps <= 0 || maxEps < minEps {
		return nil, fmt.Errorf("core: invalid epsilon bounds [%v, %v]", minEps, maxEps)
	}
	if startEps < minEps {
		startEps = minEps
	}
	if startEps > maxEps {
		startEps = maxEps
	}
	return &CoverageController{
		Target: target,
		MinEps: minEps,
		MaxEps: maxEps,
		Gain:   0.05,
		eps:    startEps,
	}, nil
}

// Epsilon returns the current threshold to use for the next retrieval.
func (c *CoverageController) Epsilon() float64 { return c.eps }

// Observe reports whether the latest prediction attempt succeeded, and
// adjusts the threshold: misses push epsilon up (weighted by how far
// coverage may fall below target), hits push it down gently so
// accuracy is recovered when the going is easy.
func (c *CoverageController) Observe(predicted bool) {
	c.attempts++
	if predicted {
		c.hits++
	}
	gain := c.Gain
	if gain <= 0 {
		gain = 0.05
	}
	// Integral-style error: each observation moves eps proportionally
	// to (target - outcome); multiplicative steps keep the behaviour
	// scale-free in eps.
	outcome := 0.0
	if predicted {
		outcome = 1
	}
	c.eps *= 1 + gain*(c.Target-outcome)
	if c.eps < c.MinEps {
		c.eps = c.MinEps
	}
	if c.eps > c.MaxEps {
		c.eps = c.MaxEps
	}
}

// Coverage returns the observed coverage so far (0 when no attempts).
func (c *CoverageController) Coverage() float64 {
	if c.attempts == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.attempts)
}

// Attempts returns the number of observations.
func (c *CoverageController) Attempts() int { return c.attempts }

// FindSimilar is m.FindSimilar under the controller's current threshold.
// The threshold goes to the search as an argument: m.Params is never
// written, so nothing leaks into later calls whatever the search does.
// Its result is shared and read-only, as m.FindSimilar's.
func (c *CoverageController) FindSimilar(m *Matcher, q Query) ([]Match, error) {
	return m.search(context.Background(), q, nil, 0, c.eps, nil)
}
