package fsm

import (
	"testing"

	"stsmatch/internal/plr"
)

func TestPrimeResumesFromRecoveredTail(t *testing.T) {
	samples := cleanBreathing(10, 4, 15)
	cfg := DefaultConfig()
	seq, err := SegmentAll(cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) < 4 {
		t.Fatalf("need a few vertices to prime from, got %d", len(seq))
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(seq); err != nil {
		t.Fatal(err)
	}
	last := seq[len(seq)-1]
	if s.CurrentState() != last.State {
		t.Errorf("CurrentState = %v after prime, want last vertex state %v",
			s.CurrentState(), last.State)
	}

	// The primed segmenter must accept continued ingestion from where
	// the recording stopped and eventually emit vertices again.
	cont := cleanBreathing(14, 4, 15)
	var emitted plr.Sequence
	for _, sm := range cont {
		if sm.T <= last.T {
			continue
		}
		vs, err := s.Push(sm)
		if err != nil {
			t.Fatalf("Push(t=%v) after prime: %v", sm.T, err)
		}
		emitted = append(emitted, vs...)
	}
	if len(emitted) == 0 {
		t.Fatal("primed segmenter emitted no vertices on continued ingestion")
	}
	for i := 1; i < len(emitted); i++ {
		if emitted[i].T <= emitted[i-1].T {
			t.Errorf("emitted vertices out of order at %d: %v then %v",
				i, emitted[i-1].T, emitted[i].T)
		}
	}
}

// TestPrimedSegmenterNeverReemits: a segmenter primed from the PLR of
// the first part of a recording, then fed the rest of it, never emits
// a vertex at or before the last primed one — neither at its first
// segment close, which reports the anchor vertex again and so emits
// nothing, nor at a Flush before any close.
func TestPrimedSegmenterNeverReemits(t *testing.T) {
	cfg := DefaultConfig()
	samples := cleanBreathing(12, 4, 15)
	cut := len(samples) / 2
	seq, err := SegmentAll(cfg, samples[:cut])
	if err != nil {
		t.Fatal(err)
	}
	seq = seq[:len(seq)-2] // Flush's two vertices are no segmenter's emissions
	last := seq[len(seq)-1]

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(seq); err != nil {
		t.Fatal(err)
	}
	primed := s.SegmentsEmitted()
	var emitted plr.Sequence
	for _, sm := range samples[cut:] {
		vs, err := s.Push(sm)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, vs...)
	}
	if len(emitted) == 0 {
		t.Fatal("primed segmenter emitted no vertex")
	}
	if closes := s.SegmentsEmitted() - primed; closes != len(emitted)+1 {
		t.Errorf("%d segment closes emitted %d vertices; want exactly the first one swallowed", closes, len(emitted))
	}
	for _, v := range append(emitted, s.Flush()...) {
		if v.T <= last.T {
			t.Errorf("emitted a vertex at t=%v, at or before the last primed one at t=%v", v.T, last.T)
		}
	}

	// A Flush before the first close holds only the newest sample.
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(samples[cut]); err != nil {
		t.Fatal(err)
	}
	if out := s.Flush(); len(out) != 1 || out[0].T != samples[cut].T {
		t.Errorf("Flush after prime and one sample = %+v, want the sample's vertex alone", out)
	}
}

func TestPrimeErrors(t *testing.T) {
	cfg := DefaultConfig()
	seq, err := SegmentAll(cfg, cleanBreathing(6, 4, 15))
	if err != nil {
		t.Fatal(err)
	}

	// A segmenter that has already seen samples refuses to prime.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(plr.Sample{T: 0, Pos: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(seq); err == nil {
		t.Error("Prime accepted a segmenter that has already seen samples")
	}

	// An empty recovered sequence is a no-op, not an error.
	s2, _ := New(cfg)
	if err := s2.Prime(nil); err != nil {
		t.Errorf("Prime(nil) = %v, want nil", err)
	}
	if s2.SamplesSeen() != 0 {
		t.Errorf("Prime(nil) consumed %d samples", s2.SamplesSeen())
	}

	// Recovered vertices missing the primary dimension are rejected.
	s3, _ := New(cfg)
	bad := plr.Sequence{{T: 1, Pos: nil, State: plr.EX}}
	if err := s3.Prime(bad); err == nil {
		t.Error("Prime accepted vertices without the primary dimension")
	}
}
