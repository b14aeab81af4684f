package core

import (
	"math"
	"math/rand"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/stats"
)

func TestStabilityRegularIsLow(t *testing.T) {
	p := DefaultParams()
	s := breathingWindow(0, 10, unitDurs(12))
	sigma := p.Stability(s)
	if sigma > 1e-9 {
		t.Errorf("perfectly regular stability = %v, want 0", sigma)
	}
	if !p.Stable(s) {
		t.Error("regular window should be stable")
	}
}

func TestStabilityIrregularIsHigh(t *testing.T) {
	p := DefaultParams()
	regular := breathingWindow(0, 10, unitDurs(12))
	irregular := regular.Clone()
	// Wildly vary amplitudes and durations cycle to cycle.
	for i := 1; i < len(irregular); i++ {
		if (i/3)%2 == 0 {
			irregular[i].Pos[0] *= 3
		}
		irregular[i].T = irregular[i-1].T + 0.3 + 1.7*float64(i%2)
	}
	sr := p.Stability(regular)
	si := p.Stability(irregular)
	if si <= sr {
		t.Errorf("irregular stability %v not above regular %v", si, sr)
	}
	if si <= p.StabilityThreshold {
		t.Errorf("this much irregularity should exceed theta: sigma=%v", si)
	}
}

func TestStabilityShortSequences(t *testing.T) {
	p := DefaultParams()
	if p.Stability(nil) != 0 {
		t.Error("nil sequence stability should be 0")
	}
	one := breathingWindow(0, 10, unitDurs(1))
	if p.Stability(one) != 0 {
		t.Error("single-segment stability should be 0")
	}
}

func TestStabilityCarriesPhysicalUnits(t *testing.T) {
	// Deviations are absolute (mm), on the same scale as the
	// Definition 2 distance: the same relative irregularity at 10x
	// the amplitude must yield ~10x the stability value.
	p := DefaultParams()
	mk := func(scale float64) plr.Sequence {
		s := breathingWindow(0, 10*scale, unitDurs(9))
		for i := 3; i < len(s); i += 3 {
			s[i].Pos[0] *= 1.3 // +30% on one peak vertex per cycle
		}
		return s
	}
	small := p.Stability(mk(1))
	large := p.Stability(mk(10))
	if small == 0 || large == 0 {
		t.Fatal("perturbation had no effect")
	}
	ratio := large / small
	if ratio < 8 || ratio > 12 {
		t.Errorf("sigma should scale ~10x with amplitude: small=%v large=%v", small, large)
	}
}

func TestDynamicQueryStableMotionUsesMinLength(t *testing.T) {
	p := DefaultParams()
	seq := breathingWindow(0, 10, unitDurs(40))
	q, info := p.DynamicQuery(seq)
	if len(q) != p.MinQueryVertices() {
		t.Errorf("stable motion query = %d vertices, want min %d", len(q), p.MinQueryVertices())
	}
	if !info.Stable {
		t.Error("regular motion should halt on a stable strip")
	}
	if info.Start != len(seq)-len(q) {
		t.Errorf("Start = %d inconsistent with query length", info.Start)
	}
	// The query must be the *most recent* window.
	if q[len(q)-1].T != seq[len(seq)-1].T {
		t.Error("query does not end at the most recent vertex")
	}
}

func TestDynamicQueryUnstableMotionGrows(t *testing.T) {
	p := DefaultParams()
	// Tighten theta so the scrambled strips below are decisively
	// unstable while the clean history remains stable; the mechanism
	// under test is the strip walking back, not the default threshold.
	p.StabilityThreshold = 2
	// Regular history followed by an erratic recent portion. The
	// perturbation period (4) is coprime with the cycle length (3) so
	// the recent window cannot look self-consistently regular.
	seq := breathingWindow(0, 10, unitDurs(30))
	n := len(seq)
	for i := n - 12; i < n; i++ {
		seq[i].Pos[0] += 14 * float64(i%4)
		seq[i].T += 0.4 * float64(i%3) // duration scrambling too
	}
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	q, _ := p.DynamicQuery(seq)
	if len(q) <= p.MinQueryVertices() {
		t.Errorf("unstable recent motion should grow the query: got %d vertices", len(q))
	}
	if len(q) > p.MaxQueryVertices() {
		t.Errorf("query exceeded max: %d > %d", len(q), p.MaxQueryVertices())
	}
}

func TestDynamicQueryCapsAtMax(t *testing.T) {
	p := DefaultParams()
	p.StabilityThreshold = 1e-9 // nothing is ever stable
	seq := breathingWindow(0, 10, unitDurs(60))
	// Make everything slightly irregular so sigma > 0 everywhere.
	for i := range seq {
		seq[i].Pos[0] += 0.3 * float64(i%5)
	}
	q, info := p.DynamicQuery(seq)
	if len(q) != p.MaxQueryVertices() {
		t.Errorf("query = %d vertices, want max %d", len(q), p.MaxQueryVertices())
	}
	if info.Stable {
		t.Error("strip should not report stable")
	}
}

func TestDynamicQueryShortSequence(t *testing.T) {
	p := DefaultParams()
	seq := breathingWindow(0, 10, unitDurs(4)) // 5 vertices < min 10
	q, info := p.DynamicQuery(seq)
	if len(q) != len(seq) {
		t.Errorf("short sequence query = %d vertices, want all %d", len(q), len(seq))
	}
	if info.Start != 0 {
		t.Errorf("Start = %d, want 0", info.Start)
	}
}

func TestFixedQuery(t *testing.T) {
	seq := breathingWindow(0, 10, unitDurs(30))
	q := FixedQuery(seq, 3)
	if len(q) != 10 {
		t.Errorf("FixedQuery(3 cycles) = %d vertices, want 10", len(q))
	}
	if q[len(q)-1].T != seq[len(seq)-1].T {
		t.Error("fixed query must end at the most recent vertex")
	}
	short := breathingWindow(0, 10, unitDurs(3))
	if got := FixedQuery(short, 5); len(got) != len(short) {
		t.Error("short sequence should be returned whole")
	}
}

func TestStabilityUsesAmpFreqWeights(t *testing.T) {
	// With a pure duration perturbation, raising WeightFreq must raise
	// sigma; with a pure amplitude perturbation, raising WeightAmp
	// must raise sigma.
	durPerturbed := breathingWindow(0, 10, []float64{1, 1, 1, 2, 1, 1, 1, 1, 1})
	ampPerturbed := breathingWindow(0, 10, unitDurs(9))
	ampPerturbed[4].Pos[0] += 5

	pLow := DefaultParams()
	pLow.WeightFreq = 0.1
	pHigh := DefaultParams()
	pHigh.WeightFreq = 1.0
	if !(pHigh.Stability(durPerturbed) > pLow.Stability(durPerturbed)) {
		t.Error("WeightFreq has no effect on duration irregularity")
	}

	aLow := DefaultParams()
	aLow.WeightAmp = 1.0
	aHigh := DefaultParams()
	aHigh.WeightAmp = 3.0
	if !(aHigh.Stability(ampPerturbed) > aLow.Stability(ampPerturbed)) {
		t.Error("WeightAmp has no effect on amplitude irregularity")
	}
	_ = math.Pi
}

// stabilityBySegments is Definition 1 computed the long way, through the
// exported segment list: the reference the slice-free Params.Stability
// must agree with bit for bit.
func stabilityBySegments(p Params, s plr.Sequence) float64 {
	if s.NumSegments() < 2 {
		return 0
	}
	wa, wf := p.ampFreqWeights()
	segs := s.Segments()
	var amp, dur [plr.NumStates]stats.Welford
	for _, g := range segs {
		amp[g.State].Add(g.Amplitude())
		dur[g.State].Add(g.Duration)
	}
	var sigma float64
	for _, g := range segs {
		sigma += wa*math.Abs(g.Amplitude()-amp[g.State].Mean()) + wf*math.Abs(g.Duration-dur[g.State].Mean())
	}
	return sigma
}

// stabilityFixtures are the sequences of the tests above, a jittered
// multi-dimensional one and one with an irregular stretch.
func stabilityFixtures() []plr.Sequence {
	irregular := breathingWindow(0, 10, unitDurs(12))
	for i := 1; i < len(irregular); i++ {
		if (i/3)%2 == 0 {
			irregular[i].Pos[0] *= 3
		}
		irregular[i].T = irregular[i-1].T + 0.3 + 1.7*float64(i%2)
	}
	scrambled := breathingWindow(0, 10, unitDurs(30))
	for i := len(scrambled) - 12; i < len(scrambled); i++ {
		scrambled[i].Pos[0] += 14 * float64(i%4)
		scrambled[i].T += 0.4 * float64(i%3)
	}
	drifting := breathingWindow(0, 10, unitDurs(60))
	for i := range drifting {
		drifting[i].Pos[0] += 0.3 * float64(i%5)
	}
	rng := rand.New(rand.NewSource(3))
	jittered := randomBreathing(rng, 80)
	for i := range jittered {
		jittered[i].Pos = append(jittered[i].Pos, 3*rng.Float64(), -2*rng.Float64())
	}
	return []plr.Sequence{
		nil,
		breathingWindow(0, 10, unitDurs(1)),
		breathingWindow(0, 10, unitDurs(12)),
		breathingWindow(0, 10, []float64{1, 1, 1, 2, 1, 1, 1, 1, 1}),
		irregular, scrambled, drifting, jittered,
	}
}

// TestStabilityEqualsSegmentReference: sigma of every window of every
// fixture, and the dynamic query's choice over every prefix, are what
// the segment-list computation gives.
func TestStabilityEqualsSegmentReference(t *testing.T) {
	p := DefaultParams()
	for fi, seq := range stabilityFixtures() {
		for lo := 0; lo < len(seq); lo++ {
			for _, n := range []int{2, 3, p.MinQueryVertices(), len(seq) - lo} {
				if lo+n > len(seq) {
					continue
				}
				w := seq[lo : lo+n]
				if got, want := p.Stability(w), stabilityBySegments(p, w); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("fixture %d window [%d,%d): sigma %v, segment reference %v", fi, lo, lo+n, got, want)
				}
			}
		}
		if q, info := p.DynamicQuery(seq); len(q) > 0 {
			if want := stabilityBySegments(p, seq[info.Start:min(info.Start+p.MinQueryVertices(), len(seq))]); info.StripStability != want {
				t.Errorf("fixture %d: strip stability %v, segment reference %v", fi, info.StripStability, want)
			}
		}
	}
}

// TestStabilityAllocatesNothing: the dynamic query runs on every
// prediction and moves its strip a vertex at a time, so neither it nor
// the stability of one strip position may allocate.
func TestStabilityAllocatesNothing(t *testing.T) {
	p := DefaultParams()
	p.StabilityThreshold = 2 // the scrambled tail makes the strip walk back
	for fi, seq := range stabilityFixtures() {
		if allocs := testing.AllocsPerRun(20, func() { p.Stability(seq) }); allocs != 0 {
			t.Errorf("fixture %d: Stability allocates %v times, want 0", fi, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { p.DynamicQuery(seq) }); allocs != 0 {
			t.Errorf("fixture %d: DynamicQuery allocates %v times, want 0", fi, allocs)
		}
	}
}
