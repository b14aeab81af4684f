package fsm

import (
	"math"
	"testing"

	"stsmatch/internal/plr"
)

// FuzzSegmenter feeds arbitrary byte-derived sample streams through the
// online segmenter: whatever the input, the segmenter must never panic,
// must refuse the one sample whose dimensionality differs from the
// stream's, and must keep its output a valid, strictly time-ordered PLR
// sequence whose every vertex has the first sample's dimensionality.
// Every sample also goes through refPush, and Push must equal it bit
// for bit, in output and in state.
// The first byte picks the dimensionality (1-3), the sample spacing and
// where, after the first sample, the wrong-length one goes.
func FuzzSegmenter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40})
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0})
	f.Add([]byte("breathing patterns are structured time series"))
	f.Add([]byte{128, 128, 128, 128, 128, 128, 128, 128, 128, 128})
	f.Add([]byte{0x47, 3, 9, 27, 81, 243, 217, 139, 161, 227, 169, 251, 241, 211, 121, 107, 65, 195})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		head, data := data[0], data[1:]
		dims := 1 + int(head%3)
		spacing := 1.0 / 30 * float64(1+(head/3)%4) // 30, 15, 10 or 7.5 Hz
		wrongAt := 1 + int(head/12)%(len(data)-1)
		seg := newTwin(t, DefaultConfig())
		var seq plr.Sequence
		tcur := 0.0
		for i, b := range data {
			// Derive a sample: time always advances, by a jittered
			// step; position walks with the byte value (including
			// large jumps -> spikes), secondary axes at fractions of it.
			tcur += spacing + float64(b%7)/100
			y := float64(int(b)-128) / 4
			pos := make([]float64, dims)
			for d := range pos {
				pos[d] = y / float64(1+d)
			}
			if i == wrongAt {
				wrong := plr.Sample{T: tcur, Pos: make([]float64, 1+dims%3)}
				if seg.push(t, wrong); seg.err == nil {
					t.Fatalf("sample %d: %d-dimension sample accepted by a %d-dimension stream", i, len(wrong.Pos), dims)
				}
			}
			vs := seg.push(t, plr.Sample{T: tcur, Pos: pos})
			if seg.err != nil {
				t.Fatalf("monotone input rejected: %v", seg.err)
			}
			seq = append(seq, vs...)
		}
		seq = append(seq, seg.s.Flush()...)
		if err := seq.Validate(); err != nil {
			t.Fatalf("invalid output: %v", err)
		}
		for _, v := range seq {
			if len(v.Pos) != dims {
				t.Fatalf("vertex at %v has %d dims, the stream has %d", v.T, len(v.Pos), dims)
			}
			for _, x := range v.Pos {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("non-finite vertex position %v", x)
				}
			}
		}
	})
}
