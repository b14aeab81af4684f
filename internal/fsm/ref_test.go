package fsm

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/stats"
)

// refPush is the straightforward Push that Push's shortcuts must equal
// bit for bit: every sample computes the spike limit, takes |Δy| twice
// and calls transition, and the first sample runs the steady path. It
// shares classify and transition with Push.
func refPush(s *Segmenter, sm plr.Sample) ([]plr.Vertex, error) {
	if s.cfg.PrimaryDim >= len(sm.Pos) {
		return nil, fmt.Errorf("fsm: sample has %d dims, primary dim is %d", len(sm.Pos), s.cfg.PrimaryDim)
	}
	started := s.samplesSeen > 0
	if started && sm.T <= s.lastT {
		return nil, fmt.Errorf("fsm: non-increasing sample time %v after %v", sm.T, s.lastT)
	}
	if started && len(sm.Pos) != s.dims {
		return nil, fmt.Errorf("fsm: sample has %d dims, the stream has %d", len(sm.Pos), s.dims)
	}
	s.samplesSeen++

	y := sm.Pos[s.cfg.PrimaryDim]

	// Spike rejection (Figure 3d): a sample-to-sample jump far beyond
	// the running jump statistics is an acquisition artifact — hold
	// the last good value instead. Genuine fast motion (a cough)
	// persists, so after maxSpikeHold consecutive rejections the new
	// level is accepted.
	const maxSpikeHold = 3
	if started && s.cfg.SpikeSigma > 0 && s.jump.N() >= 10 {
		jump := math.Abs(y - s.lastGoodY)
		limit := s.cfg.SpikeSigma * math.Max(s.jump.Mean()+3*s.jump.StdDev(), 0.2)
		if jump > limit && s.spikeHolds < maxSpikeHold {
			y = s.lastGoodY
			s.spikeHolds++
			mSpikeRejects.Inc()
		} else {
			s.spikeHolds = 0
		}
	}
	if started && s.spikeHolds == 0 {
		s.jump.Add(math.Abs(y - s.lastGoodY))
	}
	s.lastGoodY = y

	// Exponential smoothing of the classification signal.
	if !started {
		s.smooth = y
	} else if s.cfg.SmoothAlpha > 0 {
		s.smooth = s.cfg.SmoothAlpha*y + (1-s.cfg.SmoothAlpha)*s.smooth
	} else {
		s.smooth = y
	}

	// Maintain the trend window: the new sample takes the oldest one's
	// slot, so a steady-state Push allocates nothing. The slot keeps the
	// full position but with the cleaned primary dimension, so emitted
	// vertices are denoised too; whatever outlives the window (the open
	// segment's start) holds a copy of its own.
	w, p := s.cfg.SlopeWindow, s.cfg.PrimaryDim
	if !started {
		s.dims = len(sm.Pos)
		s.wPos = make([]float64, w*s.dims)
	}
	if s.samplesSeen > w {
		s.reg.Remove(s.wT[s.head], s.wPos[s.head*s.dims+p])
	}
	slot := s.wPos[s.head*s.dims : (s.head+1)*s.dims]
	copy(slot, sm.Pos)
	slot[p] = s.smooth
	s.wT[s.head] = sm.T
	if s.head++; s.head == w {
		s.head = 0
	}
	s.lastT = sm.T
	if !started {
		s.segStart = plr.Sample{T: sm.T, Pos: append([]float64(nil), slot...)}
	}
	s.reg.Add(sm.T, s.smooth)

	if s.samplesSeen < w {
		return nil, nil // not enough evidence yet
	}

	obs := s.classify(s.reg.Slope())
	if v, emitted := s.transition(obs, sm.T); emitted {
		return []plr.Vertex{v}, nil
	}
	return nil, nil
}

// refPrime is Prime over refPush.
func refPrime(s *Segmenter, seq plr.Sequence) error {
	for _, v := range seq[max(0, len(seq)-s.cfg.SlopeWindow):] {
		if _, err := refPush(s, plr.Sample{T: v.T, Pos: v.Pos}); err != nil {
			return err
		}
	}
	last := seq[len(seq)-1]
	s.curState = last.State
	s.segStart = plr.Sample{T: last.T, Pos: append([]float64(nil), last.Pos...)}
	s.primedT = last.T
	s.havePending = false
	return nil
}

// word is a float's bits, every NaN as one word whatever its payload.
func word(x float64) uint64 {
	if x != x {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}

// fieldWords appends every field of a struct of floats and ints, the
// unexported ones included, as words.
func fieldWords(v reflect.Value, out []uint64) []uint64 {
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			out = append(out, word(f.Float()))
		} else {
			out = append(out, uint64(f.Int()))
		}
	}
	return out
}

// segmenterFields is how many fields stateWords knows the Segmenter to
// have (cfg and allowed, fixed by New, take no words); a field added
// without a word fails TestPushEqualsReference.
const segmenterFields = 24

// stateWords flattens everything a push can change in s into words:
// the jump and trend statistics field by field, the per-state segment
// statistics through their accessors, and every other field that is
// not configuration.
func stateWords(s *Segmenter, out []uint64) []uint64 {
	b := func(x bool) uint64 {
		if x {
			return 1
		}
		return 0
	}
	out = fieldWords(reflect.ValueOf(&s.jump).Elem(), out)
	out = fieldWords(reflect.ValueOf(&s.reg).Elem(), out)
	out = append(out, uint64(s.spikeHolds), word(s.lastGoodY), word(s.smooth),
		uint64(s.dims), uint64(s.head), word(s.lastT), uint64(s.curState), word(s.primedT),
		b(s.irr), uint64(s.cleanStreak), uint64(s.segsEmitted), uint64(s.samplesSeen),
		uint64(s.pendingState), word(s.pendingSince), b(s.havePending),
		word(s.segStart.T), uint64(len(s.segStart.Pos)), uint64(len(s.wPos)))
	for _, x := range s.segStart.Pos {
		out = append(out, word(x))
	}
	for _, x := range s.wT {
		out = append(out, word(x))
	}
	for _, x := range s.wPos {
		out = append(out, word(x))
	}
	for _, st := range [][plr.NumStates]stats.Welford{s.durStats, s.ampStats} {
		for _, w := range st {
			out = append(out, uint64(w.N()), word(w.Mean()), word(w.Variance()), word(w.Max()))
		}
	}
	return out
}

// vertexWords flattens vertices into words.
func vertexWords(vs []plr.Vertex, out []uint64) []uint64 {
	out = append(out, uint64(len(vs)))
	for _, v := range vs {
		out = append(out, word(v.T), uint64(v.State), uint64(len(v.Pos)))
		for _, x := range v.Pos {
			out = append(out, word(x))
		}
	}
	return out
}

// twin is a segmenter under Push beside one under refPush, the error of
// the last push, and the words their states flatten to.
type twin struct {
	s, r      *Segmenter
	err       error
	got, want []uint64
}

func newTwin(tb testing.TB, cfg Config) *twin {
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, _ := New(cfg)
	return &twin{s: s, r: r}
}

// push feeds sm to one segmenter through Push and to the other through
// refPush and fails unless both answer the same error or the same
// vertices, bit for bit, and hold the same state afterwards
// (stateWords): spikeHolds, lastGoodY, the jump and trend statistics
// among it.
func (w *twin) push(tb testing.TB, sm plr.Sample) []plr.Vertex {
	tb.Helper()
	vs, err := w.s.Push(sm)
	rvs, rerr := refPush(w.r, sm)
	if w.err = err; (err == nil) != (rerr == nil) {
		tb.Fatalf("sample t=%v %v: Push error %v, reference error %v", sm.T, sm.Pos, err, rerr)
	}
	w.got = vertexWords(vs, w.got[:0])
	if w.want = vertexWords(rvs, w.want[:0]); !slices.Equal(w.got, w.want) {
		tb.Fatalf("sample t=%v %v: Push emitted %v, reference %v", sm.T, sm.Pos, vs, rvs)
	}
	w.got = stateWords(w.s, w.got[:0])
	if w.want = stateWords(w.r, w.want[:0]); !slices.Equal(w.got, w.want) {
		tb.Fatalf("sample %d (t=%v %v): state after Push differs from the reference's: spikeHolds %d, want %d; lastGoodY %v, want %v; jump %+v, want %+v",
			w.r.samplesSeen, sm.T, sm.Pos, w.s.spikeHolds, w.r.spikeHolds, w.s.lastGoodY, w.r.lastGoodY, w.s.jump, w.r.jump)
	}
	return vs
}

// floorProbes is a flat stream whose primary level steps, once every
// quiet samples, between 0 and ±floor, ±(floor + 1 ulp) or ±(floor - 1
// ulp), so each step's jump is exactly that value. Its secondary axes
// carry a slow sine. With quiet samples of zero jump between steps the
// jump statistics stay below jumpFloor, so the spike limit is the floor
// itself.
func floorProbes(floor float64, dims, steps, quiet int) []plr.Sample {
	levels := []float64{floor, math.Nextafter(floor, math.Inf(1)), math.Nextafter(floor, 0)}
	var out []plr.Sample
	level := 0.0
	for i := range steps * quiet {
		if i > 0 && i%quiet == 0 {
			if k := i / quiet; level != 0 {
				level = 0
			} else {
				level = levels[(k/2)%3]
				if (k/6)%2 == 1 {
					level = -level
				}
			}
		}
		pos := make([]float64, dims)
		pos[0] = level
		for d := 1; d < dims; d++ {
			pos[d] = 3 * math.Sin(float64(i)/(40*float64(d)))
		}
		out = append(out, plr.Sample{T: float64(i) / 30, Pos: pos})
	}
	return out
}

// TestPushEqualsReference holds Push to refPush, sample by sample, on
// streams that reach each of Push's shortcuts and each side of them:
// jumps of exactly the spike floor and one ulp to either side of it,
// spikes held up to the hold limit and the fourth accepted, spike-heavy
// and irregular breathing in 1-3 dimensions, SmoothAlpha 0, SpikeSigma
// 0, a custom transition relation, refused samples, non-finite
// positions, and a segmenter primed mid-stream.
func TestPushEqualsReference(t *testing.T) {
	if n := reflect.TypeFor[Segmenter]().NumField(); n != segmenterFields {
		t.Fatalf("Segmenter has %d fields, stateWords knows %d: give the new ones words", n, segmenterFields)
	}
	def := DefaultConfig()
	floor := def.SpikeSigma * jumpFloor
	run := func(cfg Config, samples []plr.Sample) (vertices int) {
		t.Helper()
		w := newTwin(t, cfg)
		for _, sm := range samples {
			vertices += len(w.push(t, sm))
		}
		return vertices
	}

	// At the floor: the limit must be the floor itself when each step
	// lands, a step one ulp over it is held three times and accepted on
	// the fourth sample, and a step at or under it is accepted at once.
	steep := def
	steep.SlopeThreshold = 0.5
	for dims := 1; dims <= 3; dims++ {
		for _, cfg := range []Config{def, steep} {
			samples := floorProbes(floor, dims, 24, 500)
			w := newTwin(t, cfg)
			atFloor, over, holds, vertices := 0, 0, 0, 0
			for i, sm := range samples {
				if i > 0 && sm.Pos[0] != samples[i-1].Pos[0] {
					if j := &w.r.jump; cfg.SpikeSigma*math.Max(j.Mean()+3*j.StdDev(), jumpFloor) == floor {
						atFloor++
					}
					if math.Abs(sm.Pos[0]-samples[i-1].Pos[0]) > floor {
						over++
					}
				}
				vertices += len(w.push(t, sm))
				if w.r.spikeHolds > 0 {
					holds++
				}
			}
			if atFloor != 23 || over != 8 || holds != 3*over {
				t.Fatalf("fixture (%d dims): %d of 23 steps at a limit equal to the floor, %d over it, %d samples held (want 3 each)", dims, atFloor, over, holds)
			}
			if cfg.SlopeThreshold == steep.SlopeThreshold && vertices == 0 {
				t.Fatalf("fixture (%d dims): the steep configuration emitted no vertex", dims)
			}
		}
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
		return g.Generate(120)
	}
	spiky := func(c *signal.RespirationConfig) { c.SpikeProb, c.SpikeAmp = 0.05, 12 }
	noSpikes := def
	noSpikes.SpikeSigma = 0
	raw := def
	raw.SmoothAlpha = 0
	axis := def
	axis.SlopeWindow, axis.SlopeThreshold, axis.MinSegmentDur, axis.SmoothAlpha = 9, 40, 0.12, 0.4
	axis.Transitions = [][2]plr.State{
		{plr.IN, plr.EOE}, {plr.EOE, plr.EX},
		{plr.EX, plr.EOE}, {plr.EOE, plr.IN},
	}
	for dims := 1; dims <= 3; dims++ {
		for _, c := range []struct {
			name    string
			cfg     Config
			samples []plr.Sample
		}{
			{"breathing", def, gen(dims, int64(40+dims), nil)},
			{"spiky", def, gen(dims, int64(50+dims), spiky)},
			{"SpikeSigma 0", noSpikes, gen(dims, int64(50+dims), spiky)},
			{"SmoothAlpha 0", raw, gen(dims, int64(60+dims), spiky)},
		} {
			if n := run(c.cfg, c.samples); n < 20 {
				t.Fatalf("fixture %s (%d dims): %d vertices", c.name, dims, n)
			}
		}
	}
	if n := run(axis, trapezoid(10, 120, 0.8, 0.5)); n < 20 {
		t.Fatalf("fixture: custom transitions emitted %d vertices", n)
	}

	// Refused samples leave both segmenters as they were; non-finite
	// positions go through both the same way.
	w := newTwin(t, def)
	for i, sm := range gen(2, 71, spiky) {
		switch i {
		case 500:
			w.push(t, plr.Sample{T: sm.T - 1, Pos: sm.Pos})
			w.push(t, plr.Sample{T: sm.T, Pos: sm.Pos[:1]})
			w.push(t, plr.Sample{T: sm.T, Pos: nil})
		case 900:
			sm.Pos = []float64{math.Inf(1), 0}
		case 1400:
			sm.Pos = []float64{math.NaN(), 0}
		}
		w.push(t, sm)
	}

	// A primed resume: both segmenters primed from the first half's PLR,
	// then fed the samples after its last vertex.
	for dims := 1; dims <= 3; dims += 2 {
		samples := gen(dims, int64(80+dims), spiky)
		seq, err := SegmentAll(def, samples[:len(samples)/2])
		if err != nil {
			t.Fatal(err)
		}
		w := newTwin(t, def)
		if err := w.s.Prime(seq); err != nil {
			t.Fatal(err)
		}
		if err := refPrime(w.r, seq); err != nil {
			t.Fatal(err)
		}
		vertices := 0
		for _, sm := range samples {
			if sm.T > seq[len(seq)-1].T {
				vertices += len(w.push(t, sm))
			}
		}
		if vertices < 20 {
			t.Fatalf("fixture: primed segmenter emitted %d vertices", vertices)
		}
	}
}
