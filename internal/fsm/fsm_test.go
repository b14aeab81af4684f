package fsm

import (
	"math"
	"strings"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
)

// cleanBreathing synthesizes noiseless three-phase breathing at 30 Hz:
// quadratic exhale (steep off the peak), flat rest, quadratic inhale.
func cleanBreathing(cycles int, period, amp float64) []plr.Sample {
	const rate = 30.0
	dEX, dEOE, dIN := 0.35*period, 0.28*period, 0.37*period
	var out []plr.Sample
	t := 0.0
	for c := 0; c < cycles; c++ {
		start := t
		for ; t < start+period; t += 1 / rate {
			u := t - start
			var y float64
			switch {
			case u < dEX:
				v := 1 - u/dEX
				y = amp * v * v
			case u < dEX+dEOE:
				y = 0
			default:
				v := (u - dEX - dEOE) / dIN
				y = amp * v * v
			}
			out = append(out, plr.Sample{T: t, Pos: []float64{y}})
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"slope window", func(c *Config) { c.SlopeWindow = 1 }},
		{"slope threshold", func(c *Config) { c.SlopeThreshold = 0 }},
		{"min segment dur", func(c *Config) { c.MinSegmentDur = -1 }},
		{"smooth alpha", func(c *Config) { c.SmoothAlpha = 1.5 }},
		{"primary dim", func(c *Config) { c.PrimaryDim = -1 }},
		{"cycle deviation", func(c *Config) { c.MaxCycleDeviation = 1 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New should reject invalid config", m.name)
		}
	}
}

func TestSegmentsCleanBreathing(t *testing.T) {
	samples := cleanBreathing(10, 4, 15)
	seq, err := SegmentAll(DefaultConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Validate(); err != nil {
		t.Fatalf("invalid output sequence: %v", err)
	}
	// Expect roughly 3 segments per cycle; allow warm-up slack.
	if n := seq.NumSegments(); n < 24 || n > 36 {
		t.Errorf("segments = %d, want ~30 for 10 cycles", n)
	}
	// After warm-up the state string must be the regular EOI rotation.
	ss := seq.StateString()
	tail := ss[6:]
	if strings.Contains(tail, "R") {
		t.Errorf("clean breathing produced IRR after warm-up: %s", ss)
	}
	if !strings.Contains(ss, "EOIEOIEOI") {
		t.Errorf("regular rotation not found in %s", ss)
	}
	if c := seq.CycleCount(); c < 8 || c > 11 {
		t.Errorf("CycleCount = %d, want ~9-10", c)
	}
}

func TestStateClassificationDirections(t *testing.T) {
	samples := cleanBreathing(8, 4, 15)
	seq, err := SegmentAll(DefaultConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	// Every EX segment must fall, every IN segment must rise, and EOE
	// segments must be nearly flat.
	for i := 0; i < seq.NumSegments(); i++ {
		seg := seq.SegmentAt(i)
		slope := seg.Delta[0] / seg.Duration
		switch seg.State {
		case plr.EX:
			if slope > -1 {
				t.Errorf("segment %d: EX with slope %.2f", i, slope)
			}
		case plr.IN:
			if slope < 1 {
				t.Errorf("segment %d: IN with slope %.2f", i, slope)
			}
		case plr.EOE:
			if math.Abs(slope) > 6 {
				t.Errorf("segment %d: EOE with slope %.2f", i, slope)
			}
		}
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	samples := cleanBreathing(6, 3.5, 12)
	batch, err := SegmentAll(DefaultConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var online plr.Sequence
	for _, sm := range samples {
		vs, err := seg.Push(sm)
		if err != nil {
			t.Fatal(err)
		}
		online = append(online, vs...)
	}
	online = append(online, seg.Flush()...)
	if len(online) != len(batch) {
		t.Fatalf("online %d vertices, batch %d", len(online), len(batch))
	}
	for i := range online {
		if online[i].T != batch[i].T || online[i].State != batch[i].State {
			t.Errorf("vertex %d differs: %+v vs %+v", i, online[i], batch[i])
		}
	}
	if seg.SamplesSeen() != len(samples) {
		t.Errorf("SamplesSeen = %d, want %d", seg.SamplesSeen(), len(samples))
	}
	if seg.SegmentsEmitted() == 0 {
		t.Error("SegmentsEmitted = 0")
	}
}

func TestPushErrors(t *testing.T) {
	seg, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Push(plr.Sample{T: 0, Pos: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Push(plr.Sample{T: 0, Pos: []float64{1}}); err == nil {
		t.Error("expected error for non-increasing time")
	}
	if _, err := seg.Push(plr.Sample{T: 1, Pos: nil}); err == nil {
		t.Error("expected error for missing primary dimension")
	}
}

func TestFlushEmptyAndShort(t *testing.T) {
	seg, _ := New(DefaultConfig())
	if vs := seg.Flush(); vs != nil {
		t.Errorf("empty Flush = %+v, want nil", vs)
	}
	seg, _ = New(DefaultConfig())
	if _, err := seg.Push(plr.Sample{T: 0, Pos: []float64{3}}); err != nil {
		t.Fatal(err)
	}
	vs := seg.Flush()
	if len(vs) != 1 {
		t.Fatalf("single-sample Flush = %d vertices, want 1", len(vs))
	}
}

func TestSpikeRejectionKeepsSegmentationStable(t *testing.T) {
	clean := cleanBreathing(8, 4, 15)
	spiky := make([]plr.Sample, len(clean))
	for i, s := range clean {
		spiky[i] = s.Clone()
	}
	// Inject gross spikes at scattered points (after the warm-up the
	// spike filter needs).
	for _, i := range []int{400, 500, 600, 700} {
		spiky[i].Pos[0] += 40
	}
	cleanSeq, err := SegmentAll(DefaultConfig(), clean)
	if err != nil {
		t.Fatal(err)
	}
	spikySeq, err := SegmentAll(DefaultConfig(), spiky)
	if err != nil {
		t.Fatal(err)
	}
	dn := spikySeq.NumSegments() - cleanSeq.NumSegments()
	if dn < -3 || dn > 3 {
		t.Errorf("spikes changed segment count by %d (clean %d, spiky %d)",
			dn, cleanSeq.NumSegments(), spikySeq.NumSegments())
	}
	// No IRR should be introduced by spikes alone.
	if strings.Contains(spikySeq.StateString()[6:], "R") {
		t.Errorf("spikes caused IRR: %s", spikySeq.StateString())
	}
}

func TestBreathHoldDetectedAsIRR(t *testing.T) {
	// Regular breathing, then an 6 s hold at baseline, then regular.
	pre := cleanBreathing(6, 4, 15)
	t0 := pre[len(pre)-1].T + 1.0/30
	var hold []plr.Sample
	for ts := t0; ts < t0+6; ts += 1.0 / 30 {
		hold = append(hold, plr.Sample{T: ts, Pos: []float64{0}})
	}
	post := cleanBreathing(6, 4, 15)
	for i := range post {
		post[i].T += t0 + 6
	}
	all := append(append(pre, hold...), post...)

	seq, err := SegmentAll(DefaultConfig(), all)
	if err != nil {
		t.Fatal(err)
	}
	// Some vertex overlapping the hold window must be IRR.
	foundIRR := false
	for i := 0; i < seq.NumSegments(); i++ {
		v := seq[i]
		endT := seq[i+1].T
		if v.State == plr.IRR && endT > t0 && v.T < t0+6 {
			foundIRR = true
		}
	}
	if !foundIRR {
		t.Errorf("breath hold not marked IRR: %s", seq.StateString())
	}
	// Regular breathing must resume after the hold: the final cycles
	// should be regular again.
	tail := seq.StateString()
	if !strings.Contains(tail[len(tail)/2:], "EOI") {
		t.Errorf("regular breathing did not resume: %s", tail)
	}
}

func TestIRRAgainstGroundTruthEpisodes(t *testing.T) {
	cfg := signal.DefaultRespiration()
	cfg.IrregularProb = 0.08 // provoke several episodes
	gen, err := signal.NewRespiration(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(120)
	episodes := gen.Episodes()
	if len(episodes) == 0 {
		t.Skip("no episodes generated with this seed")
	}
	seq, err := SegmentAll(DefaultConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	// Recall: most episode time should be covered by IRR segments.
	// (Deep-breath episodes are near-regular cycles, so perfect recall
	// is not expected; require half.)
	var episodeTime, coveredTime float64
	for _, ep := range episodes {
		episodeTime += ep.End - ep.Start
	}
	for i := 0; i < seq.NumSegments(); i++ {
		if seq[i].State != plr.IRR {
			continue
		}
		segStart, segEnd := seq[i].T, seq[i+1].T
		for _, ep := range episodes {
			lo := math.Max(segStart, ep.Start)
			hi := math.Min(segEnd, ep.End)
			if hi > lo {
				coveredTime += hi - lo
			}
		}
	}
	if episodeTime > 0 && coveredTime/episodeTime < 0.4 {
		t.Errorf("IRR covered only %.0f%% of episode time", 100*coveredTime/episodeTime)
	}
}

// trapezoid synthesizes a dwell-move-dwell-move axis trace at 50 Hz.
func trapezoid(cycles int, travel, moveT, dwellT float64) []plr.Sample {
	const rate = 50.0
	var out []plr.Sample
	t := 0.0
	for c := 0; c < cycles; c++ {
		phases := []struct {
			dur float64
			f   func(u float64) float64
		}{
			{moveT, func(u float64) float64 { return travel * u }},
			{dwellT, func(float64) float64 { return travel }},
			{moveT, func(u float64) float64 { return travel * (1 - u) }},
			{dwellT, func(float64) float64 { return 0 }},
		}
		for _, ph := range phases {
			start := t
			for ; t < start+ph.dur; t += 1 / rate {
				out = append(out, plr.Sample{T: t, Pos: []float64{ph.f((t - start) / ph.dur)}})
			}
		}
	}
	return out
}

func TestCustomTransitionRelation(t *testing.T) {
	samples := trapezoid(10, 120, 0.8, 0.5)
	cfg := DefaultConfig()
	cfg.SlopeWindow = 9
	cfg.SlopeThreshold = 40
	cfg.MinSegmentDur = 0.12
	cfg.SmoothAlpha = 0.4

	// With the respiratory automaton the double-dwell cycle violates
	// the order constantly.
	seqResp, err := SegmentAll(cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	irrResp := strings.Count(seqResp.StateString(), "R")

	// With the axis's own automaton the trace is perfectly regular.
	cfg.Transitions = [][2]plr.State{
		{plr.IN, plr.EOE}, {plr.EOE, plr.EX},
		{plr.EX, plr.EOE}, {plr.EOE, plr.IN},
	}
	seqAxis, err := SegmentAll(cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	irrAxis := strings.Count(seqAxis.StateString(), "R")
	if irrAxis >= irrResp {
		t.Errorf("custom automaton should remove IRR: respiratory=%d axis=%d", irrResp, irrAxis)
	}
	if irrAxis > 2 {
		t.Errorf("regular axis trace still has %d IRR segments: %s", irrAxis, seqAxis.StateString())
	}
	// Invalid transition pairs are rejected.
	bad := cfg
	bad.Transitions = [][2]plr.State{{plr.IRR, plr.EX}}
	if err := bad.Validate(); err == nil {
		t.Error("IRR transition accepted")
	}
}

func TestMultiDimensionalSegmentation(t *testing.T) {
	cfg := signal.DefaultRespiration()
	cfg.Dims = 3
	cfg.IrregularProb = 0
	gen, err := signal.NewRespiration(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(40)
	seq, err := SegmentAll(DefaultConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", seq.Dims())
	}
	if seq.NumSegments() < 15 {
		t.Errorf("too few segments: %d", seq.NumSegments())
	}
	// Secondary axes must be preserved at vertices (attenuated but
	// non-trivial AP axis).
	anyAP := false
	for _, v := range seq {
		if math.Abs(v.Pos[1]) > 0.5 {
			anyAP = true
			break
		}
	}
	if !anyAP {
		t.Error("AP axis lost in segmentation")
	}
}

// TestPushAllocatesNothingSteadyState: once the trend window is full a
// Push that closes no segment allocates nothing (the new sample takes
// the slot the window evicts), and recycling slots never reaches into a
// vertex already handed out: each still holds the position it was
// emitted with after the rest of the stream has gone through.
func TestPushAllocatesNothingSteadyState(t *testing.T) {
	samples := cleanBreathing(80, 4, 12)
	seg, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var emitted, asEmitted plr.Sequence
	for _, sm := range samples {
		vs, err := seg.Push(sm)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, vs...)
		asEmitted = append(asEmitted, plr.Sequence(vs).Clone()...)
	}
	if len(emitted) < 100 {
		t.Fatalf("fixture: %d vertices emitted", len(emitted))
	}
	for i := range emitted {
		if emitted[i].T != asEmitted[i].T || emitted[i].Pos[0] != asEmitted[i].Pos[0] {
			t.Fatalf("vertex %d changed after it was emitted: %v, was %v", i, emitted[i], asEmitted[i])
		}
	}

	if seg, err = New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	next, vertices := 0, 0
	push := func() {
		vs, _ := seg.Push(samples[next])
		next++
		vertices += len(vs)
	}
	for next < 4*DefaultConfig().SlopeWindow {
		push()
	}
	// AllocsPerRun reports whole allocations per run: the two a closing
	// segment costs (its start's copy, the returned slice), about one
	// sample in forty, round to none; a per-sample copy would read 1.
	if allocs := testing.AllocsPerRun(len(samples)-next-1, push); allocs != 0 || vertices < 100 {
		t.Errorf("a steady-state Push allocates %v times (%d vertices emitted), want 0", allocs, vertices)
	}
}
