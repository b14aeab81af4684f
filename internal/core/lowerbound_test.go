package core

import (
	"math"
	"math/rand"
	"testing"

	"stsmatch/internal/plr"
)

// randomParams draws a valid Params from the rng, covering the full
// ablation and weight space the lower bound must stay admissible over.
func randomParams(rng *rand.Rand) Params {
	p := DefaultParams()
	p.WeightFreq = 0.05 + rng.Float64()
	p.WeightAmp = p.WeightFreq + rng.Float64()*2
	p.VertexWeightBase = 0.1 + 0.9*rng.Float64()
	p.WeightOtherPatient = 0.1 + 0.4*rng.Float64()
	p.WeightSamePatient = p.WeightOtherPatient + 0.3*rng.Float64()
	p.WeightSameSession = p.WeightSamePatient + 0.3*rng.Float64()
	p.UseAmpFreqWeights = rng.Intn(2) == 0
	p.UseStreamWeights = rng.Intn(2) == 0
	p.UseVertexWeights = rng.Intn(2) == 0
	return p
}

// randomPair draws a query/candidate pair of equal length with equal
// state order, random dimensionality and random geometry.
func randomPair(rng *rand.Rand) (q, c plr.Sequence) {
	n := 2 + rng.Intn(14)
	dims := 1 + rng.Intn(3)
	states := make([]plr.State, n)
	for i := range states {
		states[i] = plr.State(rng.Intn(3)) // EX, EOE or IN
	}
	mk := func() plr.Sequence {
		out := make(plr.Sequence, n)
		t := rng.Float64() * 10
		for i := range out {
			pos := make([]float64, dims)
			for k := range pos {
				pos[k] = (rng.Float64() - 0.5) * 40
			}
			out[i] = plr.Vertex{T: t, Pos: pos, State: states[i]}
			t += 0.1 + 3*rng.Float64()
		}
		return out
	}
	return mk(), mk()
}

// checkAdmissible asserts the chain stage A <= full bound <= exact
// distance for the given pair — the safety property of lb pruning, and
// what makes the amplitude-first stage prune only what the full bound
// would.
func checkAdmissible(t *testing.T, p Params, q, c plr.Sequence, rel SourceRelation) {
	t.Helper()
	d, err := p.Distance(q, c, rel)
	if err != nil {
		t.Fatal(err)
	}
	// The bound under test is the funnel's own: the plan method run
	// applies to every candidate.
	pl, err := newQueryPlan(p, Query{Seq: q}, q.StateSignature(), p.DistThreshold, nil)
	if err != nil {
		t.Fatal(err)
	}
	ampC := dispNormSum(c)
	lb := pl.lowerBound(ampC, c.Duration(), rel)
	if lb > d {
		t.Fatalf("lower bound %v exceeds exact distance %v\nparams %+v\nq %v\nc %v",
			lb, d, p, q, c)
	}
	// Stage A never sees the candidate's duration, so it must stay under
	// the full bound for every one: the candidate's own, the query's
	// (where the duration term is least) and its two neighbours, and 0.
	for _, amp := range []float64{ampC, pl.ampQ, 0} {
		lbA := pl.lowerBoundAmp(pl.ampBound(rel), amp)
		for _, dur := range []float64{c.Duration(), pl.durQ, math.Nextafter(pl.durQ, math.Inf(1)), math.Nextafter(pl.durQ, 0), 0} {
			if full := pl.lowerBound(amp, dur, rel); lbA > full {
				t.Fatalf("stage A %v exceeds the full bound %v at amplitude %v, duration %v (query %v, %v)\nparams %+v",
					lbA, full, amp, dur, pl.ampQ, pl.durQ, p)
			}
		}
	}
}

// TestLowerBoundAdmissibility hammers the bound with random parameter
// settings, dimensionalities, and window geometries: the bound must
// never exceed the exact Definition-2 distance, or pruning would drop
// true matches.
func TestLowerBoundAdmissibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rels := []SourceRelation{SameSession, SamePatient, OtherPatient}
	for trial := 0; trial < 5000; trial++ {
		p := randomParams(rng)
		q, c := randomPair(rng)
		checkAdmissible(t, p, q, c, rels[rng.Intn(len(rels))])
	}
}

// TestLowerBoundNearTies targets the floating-point edge the slack
// deflation exists for: candidates nearly identical to the query in
// aggregate, where a naive bound computed in floats could edge a hair
// above the true distance and prune an exact match.
func TestLowerBoundNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := randomParams(rng)
		q, _ := randomPair(rng)
		c := q.Clone()
		// Perturb the candidate by a few ulp-scale nudges.
		for i := range c {
			c[i].T += (rng.Float64() - 0.5) * 1e-12
			for k := range c[i].Pos {
				c[i].Pos[k] += (rng.Float64() - 0.5) * 1e-12
			}
		}
		// Re-sort violations of time order are possible only if the
		// nudge exceeded a gap; gaps are >= 0.1, so times stay ordered.
		checkAdmissible(t, p, q, c, SameSession)

		// The same window with a duration one ulp either side of the
		// query's, then flattened to zero amplitude, then to zero duration.
		last := len(c) - 1
		for _, dur := range []float64{math.Nextafter(q.Duration(), math.Inf(1)), math.Nextafter(q.Duration(), 0)} {
			c[last].T = c[0].T + dur
			checkAdmissible(t, p, q, c, SameSession)
		}
		for i := range c {
			copy(c[i].Pos, c[0].Pos)
		}
		checkAdmissible(t, p, q, c, SameSession)
		for i := range c {
			c[i].T = c[0].T
		}
		checkAdmissible(t, p, q, c, SameSession)
	}
}

// FuzzLowerBoundAdmissibility lets the fuzzer drive the generator
// seed, stressing the admissibility property beyond the fixed trials.
func FuzzLowerBoundAdmissibility(f *testing.F) {
	for _, seed := range []int64{1, 42, 1234, -99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		q, c := randomPair(rng)
		rel := SourceRelation(rng.Intn(3))
		checkAdmissible(t, p, q, c, rel)
	})
}
