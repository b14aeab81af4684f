package signal

import (
	"math"
	"testing"

	"stsmatch/internal/plr"
)

func TestRespirationConfigValidate(t *testing.T) {
	good := DefaultRespiration()
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mutations := []func(*RespirationConfig){
		func(c *RespirationConfig) { c.SampleRate = 0 },
		func(c *RespirationConfig) { c.Dims = 0 },
		func(c *RespirationConfig) { c.Dims = 4 },
		func(c *RespirationConfig) { c.Period = -1 },
		func(c *RespirationConfig) { c.Amplitude = 0 },
		func(c *RespirationConfig) { c.ExhaleFrac = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultRespiration()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
		if _, err := NewRespiration(cfg, 1); err == nil {
			t.Errorf("mutation %d: NewRespiration should reject", i)
		}
	}
}

func TestRespirationDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g1, _ := NewRespiration(DefaultRespiration(), seed)
		g2, _ := NewRespiration(DefaultRespiration(), seed)
		s1 := g1.Generate(30)
		s2 := g2.Generate(30)
		if len(s1) != len(s2) {
			t.Fatalf("seed %d: lengths differ %d vs %d", seed, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i].T != s2[i].T || s1[i].Pos[0] != s2[i].Pos[0] {
				t.Fatalf("seed %d: sample %d differs", seed, i)
			}
		}
	}
	// Different seeds must differ.
	g1, _ := NewRespiration(DefaultRespiration(), 1)
	g2, _ := NewRespiration(DefaultRespiration(), 2)
	s1, s2 := g1.Generate(10), g2.Generate(10)
	same := true
	for i := 0; i < len(s1) && i < len(s2); i++ {
		if s1[i].Pos[0] != s2[i].Pos[0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical signals")
	}
}

func TestRespirationShape(t *testing.T) {
	cfg := DefaultRespiration()
	cfg.IrregularProb = 0
	cfg.SpikeProb = 0
	cfg.BaselineDrift = 0
	g, _ := NewRespiration(cfg, 3)
	samples := g.Generate(60)
	if len(samples) < int(0.9*60*cfg.SampleRate) {
		t.Fatalf("too few samples: %d", len(samples))
	}
	// Time monotone and near the configured rate.
	for i := 1; i < len(samples); i++ {
		dt := samples[i].T - samples[i-1].T
		if dt <= 0 || dt > 2/cfg.SampleRate {
			t.Fatalf("bad inter-sample gap %v at %d", dt, i)
		}
	}
	// Range roughly matches configured amplitude.
	lo, hi := axisRange(samples, 0)
	span := hi - lo
	if span < cfg.Amplitude*0.7 || span > cfg.Amplitude*2.2 {
		t.Errorf("motion span %v inconsistent with amplitude %v", span, cfg.Amplitude)
	}
}

func TestRespirationEpisodesRecorded(t *testing.T) {
	cfg := DefaultRespiration()
	cfg.IrregularProb = 0.2
	g, _ := NewRespiration(cfg, 11)
	samples := g.Generate(120)
	eps := g.Episodes()
	if len(eps) == 0 {
		t.Fatal("expected at least one episode at 20% per-cycle probability over 120s")
	}
	end := samples[len(samples)-1].T
	for i, ep := range eps {
		if ep.End <= ep.Start {
			t.Errorf("episode %d: empty range %+v", i, ep)
		}
		if ep.Start < 0 || ep.End > end+10 {
			t.Errorf("episode %d out of stream range: %+v", i, ep)
		}
		if !ep.Contains(ep.Start) || ep.Contains(ep.End) {
			t.Errorf("episode %d: Contains is not half-open", i)
		}
	}
	// Episodes slice must be a copy.
	eps[0].Start = -999
	if g.Episodes()[0].Start == -999 {
		t.Error("Episodes returned internal state")
	}
}

func TestRespirationDims(t *testing.T) {
	cfg := DefaultRespiration()
	cfg.Dims = 3
	g, _ := NewRespiration(cfg, 5)
	samples := g.Generate(20)
	for _, s := range samples {
		if len(s.Pos) != 3 {
			t.Fatalf("sample with %d dims", len(s.Pos))
		}
	}
	// Attenuation ordering: SI > AP > LR motion spans.
	siLo, siHi := axisRange(samples, 0)
	apLo, apHi := axisRange(samples, 1)
	lrLo, lrHi := axisRange(samples, 2)
	siSpan, apSpan, lrSpan := siHi-siLo, apHi-apLo, lrHi-lrLo
	if !(siSpan > apSpan && apSpan > lrSpan) {
		t.Errorf("axis spans not ordered: SI=%.1f AP=%.1f LR=%.1f", siSpan, apSpan, lrSpan)
	}
}

func TestGenerateCohort(t *testing.T) {
	cfg := DefaultCohort()
	cfg.NumPatients = 8
	cfg.SessionsPer = 2
	cfg.SessionDur = 20
	cohort, err := GenerateCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohort) != 8 {
		t.Fatalf("patients = %d, want 8", len(cohort))
	}
	seen := map[string]bool{}
	for _, pd := range cohort {
		if seen[pd.Profile.ID] {
			t.Errorf("duplicate patient ID %s", pd.Profile.ID)
		}
		seen[pd.Profile.ID] = true
		if len(pd.Sessions) != 2 {
			t.Errorf("%s: sessions = %d, want 2", pd.Profile.ID, len(pd.Sessions))
		}
		for _, sess := range pd.Sessions {
			if len(sess.Samples) == 0 {
				t.Errorf("%s: empty session %s", pd.Profile.ID, sess.SessionID)
			}
		}
		if pd.Profile.TumorSite == "" {
			t.Errorf("%s: missing tumor site", pd.Profile.ID)
		}
	}
	// Round-robin class assignment covers all classes with 8 patients.
	classes := map[BreathingClass]int{}
	for _, pd := range cohort {
		classes[pd.Profile.Class]++
	}
	if len(classes) != NumClasses {
		t.Errorf("classes seen = %v, want all %d", classes, NumClasses)
	}
}

func TestCohortClassMix(t *testing.T) {
	cfg := DefaultCohort()
	cfg.NumPatients = 6
	cfg.SessionsPer = 1
	cfg.SessionDur = 10
	cfg.ClassMix = []int{3, 3, 0, 0}
	cohort, err := GenerateCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, pd := range cohort {
		want := ClassCalm
		if i >= 3 {
			want = ClassDeep
		}
		if pd.Profile.Class != want {
			t.Errorf("patient %d class = %v, want %v", i, pd.Profile.Class, want)
		}
	}
	// Invalid mixes rejected.
	cfg.ClassMix = []int{1, 1, 1, 1} // sums to 4, not 6
	if _, err := GenerateCohort(cfg); err == nil {
		t.Error("expected error for mismatched ClassMix")
	}
	cfg.ClassMix = nil
	cfg.NumPatients = 0
	if _, err := GenerateCohort(cfg); err == nil {
		t.Error("expected error for zero patients")
	}
}

func TestCohortDeterminism(t *testing.T) {
	cfg := DefaultCohort()
	cfg.NumPatients = 3
	cfg.SessionsPer = 1
	cfg.SessionDur = 10
	c1, _ := GenerateCohort(cfg)
	c2, _ := GenerateCohort(cfg)
	for i := range c1 {
		s1, s2 := c1[i].Sessions[0].Samples, c2[i].Sessions[0].Samples
		if len(s1) != len(s2) {
			t.Fatalf("patient %d lengths differ", i)
		}
		for j := range s1 {
			if s1[j].Pos[0] != s2[j].Pos[0] {
				t.Fatalf("patient %d sample %d differs", i, j)
			}
		}
	}
}

func TestBreathingClassString(t *testing.T) {
	names := map[BreathingClass]string{
		ClassCalm: "calm", ClassDeep: "deep", ClassRapid: "rapid", ClassErratic: "erratic",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if BreathingClass(9).String() != "class(9)" {
		t.Errorf("unknown class name = %q", BreathingClass(9).String())
	}
}

func TestHeartbeatGenerator(t *testing.T) {
	g, err := NewHeartbeat(DefaultHeartbeat(), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := g.Generate(30)
	if len(samples) < 2500 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	for i, s := range samples {
		if i > 0 && s.T <= samples[i-1].T {
			t.Fatal("non-monotone heartbeat times")
		}
	}
	cfg := DefaultHeartbeat()
	if lo, hi := axisRange(samples, 0); hi-lo < cfg.Amplitude*0.8 {
		t.Errorf("pulse span %.1f too small for amplitude %.1f", hi-lo, cfg.Amplitude)
	}
	bad := DefaultHeartbeat()
	bad.Rate = 0
	if _, err := NewHeartbeat(bad, 1); err == nil {
		t.Error("expected error for zero rate")
	}
}

func TestRobotArmGenerator(t *testing.T) {
	g, err := NewRobotArm(DefaultRobotArm(), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := g.Generate(30)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	cfg := DefaultRobotArm()
	lo, hi := axisRange(samples, 0)
	if hi < cfg.Travel*0.9 {
		t.Errorf("arm never reached work position: max %.1f", hi)
	}
	if lo > cfg.Travel*0.1 {
		t.Errorf("arm never returned home: min %.1f", lo)
	}
	bad := DefaultRobotArm()
	bad.Travel = 0
	if _, err := NewRobotArm(bad, 1); err == nil {
		t.Error("expected error for zero travel")
	}
}

func TestTideGenerator(t *testing.T) {
	cfg := DefaultTide()
	samples := GenerateTide(cfg, 3*24*3600, 5) // three days
	if len(samples) < 700 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	// The M2 component should produce roughly 2 highs per lunar day:
	// count zero-crossings of the demeaned series.
	var mean float64
	for _, s := range samples {
		mean += s.Pos[0]
	}
	mean /= float64(len(samples))
	crossings := 0
	for i := 1; i < len(samples); i++ {
		a := samples[i-1].Pos[0] - mean
		b := samples[i].Pos[0] - mean
		if a*b < 0 {
			crossings++
		}
	}
	// ~5.8 semidiurnal cycles in 3 days -> ~11-12 crossings; weather
	// noise can add a few.
	if crossings < 8 || crossings > 40 {
		t.Errorf("crossings = %d, expected tidal oscillation", crossings)
	}
	if math.IsNaN(samples[len(samples)-1].Pos[0]) {
		t.Error("NaN in tide output")
	}
}

// axisRange returns the smallest and largest coordinate dim of samples.
func axisRange(samples []plr.Sample, dim int) (lo, hi float64) {
	lo, hi = samples[0].Pos[dim], samples[0].Pos[dim]
	for _, s := range samples {
		lo, hi = min(lo, s.Pos[dim]), max(hi, s.Pos[dim])
	}
	return lo, hi
}
