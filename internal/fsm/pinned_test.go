package fsm

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
)

// TestSegmentationPinned pins the segmenter's output bit for bit: one
// checksum over every vertex's time, coordinates and state for a
// seeded cohort that reaches each branch of Push — 1, 2 and 3
// dimensions, irregular episodes, a spike-heavy stream the filter
// clamps, SmoothAlpha 0, a custom transition relation, and the stream
// a primed segmenter resumes mid-stream: the last primed vertex, then
// every vertex emitted after it. A rewrite of the segmenter's internals
// must leave it unchanged.
func TestSegmentationPinned(t *testing.T) {
	const want = "4969ab4e110d83f2"
	h := fnv.New64a()
	sum := func(w io.Writer, seq plr.Sequence) {
		for _, v := range seq {
			fmt.Fprintf(w, "%x", math.Float64bits(v.T))
			for _, x := range v.Pos {
				fmt.Fprintf(w, ",%x", math.Float64bits(x))
			}
			fmt.Fprintf(w, "/%d;", v.State)
		}
		fmt.Fprint(w, "|")
	}
	gen := func(dims int, seed int64, mut func(*signal.RespirationConfig)) []plr.Sample {
		c := signal.DefaultRespiration()
		c.Dims = dims
		c.IrregularProb = 0.08
		if mut != nil {
			mut(&c)
		}
		g, err := signal.NewRespiration(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g.Generate(150)
	}
	segment := func(cfg Config, samples []plr.Sample) plr.Sequence {
		seq, err := SegmentAll(cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) < 20 {
			t.Fatalf("fixture: %d vertices", len(seq))
		}
		return seq
	}

	def := DefaultConfig()
	for dims := 1; dims <= 3; dims++ {
		sum(h, segment(def, gen(dims, int64(10+dims), nil)))
	}
	spiky := gen(2, 21, func(c *signal.RespirationConfig) { c.SpikeProb, c.SpikeAmp = 0.03, 12 })
	sum(h, segment(def, spiky))
	raw := def
	raw.SmoothAlpha = 0
	sum(h, segment(raw, gen(1, 22, nil)))

	axis := def
	axis.SlopeWindow, axis.SlopeThreshold, axis.MinSegmentDur, axis.SmoothAlpha = 9, 40, 0.12, 0.4
	axis.Transitions = [][2]plr.State{
		{plr.IN, plr.EOE}, {plr.EOE, plr.EX},
		{plr.EX, plr.EOE}, {plr.EOE, plr.IN},
	}
	sum(h, segment(axis, trapezoid(10, 120, 0.8, 0.5)))

	// Resume mid-stream: prime from the first half's PLR, then push the
	// samples after its last vertex. The caller's stream already holds
	// that vertex, and the segmenter never emits it again.
	for dims := 1; dims <= 3; dims += 2 {
		samples := gen(dims, int64(30+dims), nil)
		half := samples[:len(samples)/2]
		seq := segment(def, half)
		seg, err := New(def)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Prime(seq); err != nil {
			t.Fatal(err)
		}
		last := seq[len(seq)-1].T
		resumed := plr.Sequence{seq[len(seq)-1]}
		for _, sm := range samples {
			if sm.T <= last {
				continue
			}
			vs, err := seg.Push(sm)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				if v.T <= last {
					t.Fatalf("primed segmenter emitted t=%v, at or before its last primed vertex", v.T)
				}
			}
			resumed = append(resumed, vs...)
		}
		resumed = append(resumed, seg.Flush()...)
		if len(resumed) < 20 {
			t.Fatalf("fixture: primed segmenter emitted %d vertices", len(resumed))
		}
		sum(h, resumed)
	}

	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("segmentation checksum %s, want %s", got, want)
	}
}
