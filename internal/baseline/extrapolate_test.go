package baseline

import (
	"math"
	"testing"

	"stsmatch/internal/plr"
)

func TestExtrapolatorOnLine(t *testing.T) {
	e, err := NewExtrapolator(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Predict(1); ok {
		t.Error("prediction available before any data")
	}
	for ts := 0.0; ts <= 2.0; ts += 0.1 {
		if err := e.Observe(plr.Sample{T: ts, Pos: []float64{3 + 2*ts}}); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := e.Predict(2.5)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(got-8) > 1e-9 {
		t.Errorf("Predict(2.5) = %v, want 8", got)
	}
}

func TestExtrapolatorWindowEviction(t *testing.T) {
	// A slope change should be forgotten once the old regime leaves
	// the window.
	e, _ := NewExtrapolator(0.5, 0)
	for ts := 0.0; ts < 2.0; ts += 0.05 {
		e.Observe(plr.Sample{T: ts, Pos: []float64{0}}) //nolint:errcheck
	}
	for ts := 2.0; ts < 4.0; ts += 0.05 {
		e.Observe(plr.Sample{T: ts, Pos: []float64{10 * (ts - 2)}}) //nolint:errcheck
	}
	got, ok := e.Predict(4.2)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(got-22) > 0.5 {
		t.Errorf("Predict(4.2) = %v, want ~22 (new slope only)", got)
	}
	if n := len(e.buf); n > 11 {
		t.Errorf("window holds %d samples, want ~10", n)
	}
}

func TestExtrapolatorErrors(t *testing.T) {
	if _, err := NewExtrapolator(0, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewExtrapolator(1, -1); err == nil {
		t.Error("negative dim accepted")
	}
	e, _ := NewExtrapolator(1, 1)
	if err := e.Observe(plr.Sample{T: 0, Pos: []float64{1}}); err == nil {
		t.Error("missing dimension accepted")
	}
	e2, _ := NewExtrapolator(1, 0)
	if err := e2.Observe(plr.Sample{T: 1, Pos: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Observe(plr.Sample{T: 1, Pos: []float64{0}}); err == nil {
		t.Error("non-increasing time accepted")
	}
}
