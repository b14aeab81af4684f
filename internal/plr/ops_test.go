package plr

import (
	"testing"
)

func TestSequenceResample(t *testing.T) {
	s := Sequence{
		{T: 0, Pos: []float64{0}, State: EX},
		{T: 2, Pos: []float64{10}, State: EOE},
	}
	got := s.Resample(0.5, 0)
	if len(got) != 5 {
		t.Fatalf("resampled %d points, want 5", len(got))
	}
	if got[2].Pos[0] != 5 {
		t.Errorf("midpoint = %v, want 5", got[2].Pos[0])
	}
	if s.Resample(0, 0) != nil || s.Resample(0.5, 3) != nil || (Sequence{}).Resample(1, 0) != nil {
		t.Error("invalid resample inputs should return nil")
	}
}
