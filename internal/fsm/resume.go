package fsm

import (
	"errors"
	"fmt"

	"stsmatch/internal/plr"
)

// Prime re-warms a fresh Segmenter from the tail of a recovered PLR
// sequence so an ingestion session can resume mid-stream after crash
// recovery. The tail vertices (up to SlopeWindow of them) are pushed
// as samples to refill the trend window and set the time cursor, then
// the open segment is re-anchored at the last vertex with its
// recovered state.
//
// Priming is best-effort: vertices are ~1 Hz where raw samples are
// ~30 Hz, so slope and noise statistics re-converge over the first
// seconds of resumed ingestion. The primed segmenter never emits a
// vertex at or before the last one of seq, which the caller's stream
// already holds: its first segment close, which reports the anchor
// vertex again, emits nothing.
func (s *Segmenter) Prime(seq plr.Sequence) error {
	if s.samplesSeen > 0 {
		return errors.New("fsm: cannot prime a segmenter that has already seen samples")
	}
	if len(seq) == 0 {
		return nil
	}
	start := max(0, len(seq)-s.cfg.SlopeWindow)
	for _, v := range seq[start:] {
		// Emitted vertices are discarded: the stream already holds the
		// recovered PLR; priming only rebuilds internal state.
		if _, err := s.Push(plr.Sample{T: v.T, Pos: v.Pos}); err != nil {
			return fmt.Errorf("fsm: priming from recovered tail: %w", err)
		}
	}
	last := seq[len(seq)-1]
	s.curState = last.State
	s.segStart = plr.Sample{T: last.T, Pos: append([]float64(nil), last.Pos...)}
	s.primedT = last.T
	s.havePending = false
	return nil
}
