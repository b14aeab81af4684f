package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestCoverageControllerValidation(t *testing.T) {
	if _, err := NewCoverageController(0, 8, 2, 16); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := NewCoverageController(1, 8, 2, 16); err == nil {
		t.Error("target 1 accepted")
	}
	if _, err := NewCoverageController(0.8, 8, 0, 16); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewCoverageController(0.8, 8, 10, 5); err == nil {
		t.Error("inverted bounds accepted")
	}
	// Start is clamped into the bounds.
	c, err := NewCoverageController(0.8, 100, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epsilon() != 16 {
		t.Errorf("start eps = %v, want clamp to 16", c.Epsilon())
	}
}

func TestCoverageControllerConverges(t *testing.T) {
	// Simulated environment: an attempt succeeds iff eps exceeds a
	// random per-attempt difficulty drawn from [0, 10]. Coverage of
	// 0.8 then needs eps ~ 8; the controller must settle near it.
	rng := rand.New(rand.NewSource(1))
	c, err := NewCoverageController(0.8, 2, 0.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	var recent int
	const window = 500
	for i := 0; i < 3000; i++ {
		difficulty := rng.Float64() * 10
		ok := c.Epsilon() > difficulty
		c.Observe(ok)
		if i >= 3000-window && ok {
			recent++
		}
	}
	got := float64(recent) / window
	if got < 0.7 || got > 0.9 {
		t.Errorf("late coverage %.2f, want ~0.8 (eps settled at %.2f)", got, c.Epsilon())
	}
	if c.Attempts() != 3000 {
		t.Errorf("attempts = %d", c.Attempts())
	}
	if c.Coverage() <= 0 || c.Coverage() >= 1 {
		t.Errorf("overall coverage = %v", c.Coverage())
	}
}

func TestCoverageControllerBounds(t *testing.T) {
	c, err := NewCoverageController(0.9, 8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Persistent misses saturate at MaxEps.
	for i := 0; i < 500; i++ {
		c.Observe(false)
	}
	if c.Epsilon() != 16 {
		t.Errorf("eps = %v, want saturation at 16", c.Epsilon())
	}
	// Persistent hits descend toward MinEps.
	for i := 0; i < 5000; i++ {
		c.Observe(true)
	}
	if c.Epsilon() != 2 {
		t.Errorf("eps = %v, want saturation at 2", c.Epsilon())
	}
}

func TestPredictAdaptive(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:len(seq)-2], "P1", "S1")

	ctl, err := NewCoverageController(0.8, 8, 0.001, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictAdaptive(q, 0.2, ctl); err != nil {
		t.Fatalf("adaptive prediction failed on easy data: %v", err)
	}
	if ctl.Attempts() != 1 || ctl.Coverage() != 1 {
		t.Errorf("controller not fed: attempts=%d coverage=%v", ctl.Attempts(), ctl.Coverage())
	}
	// The matcher's own threshold must be untouched.
	if m.Params.DistThreshold != DefaultParams().DistThreshold {
		t.Errorf("threshold leaked: %v", m.Params.DistThreshold)
	}
	// A hit must lower epsilon slightly (toward accuracy).
	if ctl.Epsilon() >= 8 {
		t.Errorf("eps = %v, want below start after a hit", ctl.Epsilon())
	}
}

// TestPredictAdaptiveLeavesParams: the controller's epsilon reaches the
// search as an argument, so neither an erroring search (a one-vertex
// query) nor a panicking one (the database pulled from under the matcher)
// can leave it in m.Params — the swap-and-restore this replaced had no
// defer.
func TestPredictAdaptiveLeavesParams(t *testing.T) {
	db := buildTestDB(t)
	given := DefaultParams()
	given.DistThreshold = 4.25
	m, err := NewMatcher(db, given)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewCoverageController(0.8, 11, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	seq := db.Patient("P1").StreamBySession("S1").Seq()

	if _, err := m.PredictAdaptive(NewQuery(seq[:1], "P1", "S1"), 0.2, ctl); !errors.Is(err, ErrTooShort) {
		t.Fatalf("one-vertex query: err = %v, want ErrTooShort", err)
	}
	if m.Params != given {
		t.Errorf("erroring search changed Params: %+v", m.Params)
	}
	if ctl.Attempts() != 1 || ctl.Coverage() != 0 {
		t.Errorf("failed attempt not observed: attempts=%d coverage=%v", ctl.Attempts(), ctl.Coverage())
	}

	m.DB = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Error("search over a nil database did not panic")
			}
		}()
		_, _ = m.PredictAdaptive(NewQuery(seq[len(seq)-10:len(seq)-2], "P1", "S1"), 0.2, ctl)
	}()
	if m.Params != given {
		t.Errorf("panicking search changed Params: %+v", m.Params)
	}
}
