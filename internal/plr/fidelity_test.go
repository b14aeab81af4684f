package plr

import (
	"math"
	"testing"
)

func TestMeasureFidelityExactPLR(t *testing.T) {
	// Samples exactly on the PLR lines: zero reconstruction error.
	seq := Sequence{
		{T: 0, Pos: []float64{0}, State: EX},
		{T: 2, Pos: []float64{10}, State: EOE},
		{T: 4, Pos: []float64{10}, State: IN},
	}
	var samples []Sample
	for ts := 0.0; ts <= 4; ts += 0.25 {
		pos, _ := seq.PositionAt(ts)
		samples = append(samples, Sample{T: ts, Pos: pos})
	}
	f, err := MeasureFidelity(seq, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.RMSE > 1e-12 || f.MaxAbsErr > 1e-12 {
		t.Errorf("exact samples should reconstruct perfectly: %+v", f)
	}
	if f.Vertices != 3 || f.RawSamples != len(samples) {
		t.Errorf("counts wrong: %+v", f)
	}
	if math.Abs(f.Compression-float64(len(samples))/3) > 1e-12 {
		t.Errorf("compression = %v", f.Compression)
	}
	if f.String() == "" {
		t.Error("empty String")
	}
}

func TestMeasureFidelityKnownError(t *testing.T) {
	seq := Sequence{
		{T: 0, Pos: []float64{0}, State: EX},
		{T: 2, Pos: []float64{0}, State: EOE},
	}
	samples := []Sample{
		{T: 0.5, Pos: []float64{1}},
		{T: 1.5, Pos: []float64{-1}},
		{T: 99, Pos: []float64{50}}, // outside span: skipped
	}
	f, err := MeasureFidelity(seq, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.RMSE-1) > 1e-12 || math.Abs(f.MeanAbsErr-1) > 1e-12 || f.MaxAbsErr != 1 {
		t.Errorf("errors: %+v", f)
	}
}

func TestMeasureFidelityErrors(t *testing.T) {
	seq := Sequence{{T: 0, Pos: []float64{0}, State: EX}}
	if _, err := MeasureFidelity(seq, nil, 0); err == nil {
		t.Error("short sequence accepted")
	}
	two := Sequence{
		{T: 0, Pos: []float64{0}, State: EX},
		{T: 1, Pos: []float64{1}, State: EOE},
	}
	if _, err := MeasureFidelity(two, nil, 0); err == nil {
		t.Error("no in-span samples accepted")
	}
	if _, err := MeasureFidelity(two, []Sample{{T: 0.5, Pos: []float64{0}}}, 2); err == nil {
		t.Error("bad dim accepted")
	}
}

func TestIRRFraction(t *testing.T) {
	seq := Sequence{
		{T: 0, Pos: []float64{0}, State: EX},
		{T: 1, Pos: []float64{0}, State: IRR},
		{T: 3, Pos: []float64{0}, State: IN},
		{T: 4, Pos: []float64{0}, State: IN},
	}
	if got := IRRFraction(seq); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("IRRFraction = %v, want 0.5", got)
	}
	if IRRFraction(nil) != 0 {
		t.Error("empty fraction should be 0")
	}
	noIRR := Sequence{
		{T: 0, Pos: []float64{0}, State: EX},
		{T: 1, Pos: []float64{0}, State: EOE},
	}
	if IRRFraction(noIRR) != 0 {
		t.Error("no-IRR fraction should be 0")
	}
}
