package core

import (
	"slices"
	"testing"

	"stsmatch/internal/store"
)

// buildEvalDB builds a modest multi-patient database of hand-crafted
// periodic streams with slight per-stream variation, long enough for
// the evaluation replay protocol.
func buildEvalDB(t *testing.T) *store.DB {
	t.Helper()
	db := store.NewDB()
	amps := []float64{10, 10.4, 10.8, 11.2}
	for pi, amp := range amps {
		p, err := db.AddPatient(store.PatientInfo{ID: string(rune('A' + pi))})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			st := p.AddStream(p.Info.ID + "-S" + string(rune('1'+s)))
			if err := st.Append(breathingWindow(0, amp+0.1*float64(s), unitDurs(90))...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestEvaluateProducesPredictions(t *testing.T) {
	db := buildEvalDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	opts := DefaultEvalOptions()
	opts.QueriesPerStream = 6
	res, err := m.Evaluate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalQueries == 0 {
		t.Fatal("no queries evaluated")
	}
	if res.Coverage() == 0 {
		t.Fatal("no predictions made")
	}
	if len(res.PerDelta) != len(opts.Deltas) {
		t.Fatalf("PerDelta length %d, want %d", len(res.PerDelta), len(opts.Deltas))
	}
	for _, d := range res.PerDelta {
		if d.Attempts == 0 {
			t.Errorf("delta %v: no attempts", d.Delta)
		}
		if d.Predictions > d.Attempts {
			t.Errorf("delta %v: predictions exceed attempts", d.Delta)
		}
		if d.MeanError() < 0 {
			t.Errorf("delta %v: negative error", d.Delta)
		}
	}
	// On clean periodic data the error should be sub-millimetre.
	if res.MeanError() > 1 {
		t.Errorf("mean error %v too large on periodic data", res.MeanError())
	}
	// Query lengths within configured bounds: every query, seen one at
	// a time through Replay, is at least 2 vertices long.
	p := DefaultParams()
	minLen := p.MaxQueryVertices() + 1
	if _, err := m.Replay(opts, nil, func(a Attempt) { minLen = min(minLen, len(a.Query.Seq)) }); err != nil {
		t.Fatal(err)
	}
	if minLen < 2 || res.QueryLen.Max() > float64(p.MaxQueryVertices()) {
		t.Errorf("query lengths out of bounds: [%v, %v]", minLen, res.QueryLen.Max())
	}
}

func TestEvaluateErrorGrowsWithHorizon(t *testing.T) {
	// The core Figure 6a shape: with last-vertex anchoring, longer
	// horizons must not be easier than the shortest one.
	db := buildEvalDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	opts := DefaultEvalOptions()
	opts.Deltas = []float64{0.033, 0.6}
	opts.QueriesPerStream = 8
	res, err := m.Evaluate(opts)
	if err != nil {
		t.Fatal(err)
	}
	short := res.PerDelta[0].MeanError()
	long := res.PerDelta[1].MeanError()
	if long <= short {
		t.Errorf("error did not grow with horizon: %.4f @33ms vs %.4f @600ms", short, long)
	}
}

func TestEvaluateFixedVsDynamic(t *testing.T) {
	db := buildEvalDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	base := DefaultEvalOptions()
	base.QueriesPerStream = 6

	fixed := base
	fixed.FixedCycles = 5
	fres, err := m.Evaluate(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if fres.QueryLen.Mean() != 16 { // 5 cycles -> 16 vertices
		t.Errorf("fixed query length = %v, want 16", fres.QueryLen.Mean())
	}
	dres, err := m.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	if dres.QueryLen.Mean() > fres.QueryLen.Mean() {
		t.Errorf("dynamic queries on stable data (%v) should be shorter than fixed-5 (%v)",
			dres.QueryLen.Mean(), fres.QueryLen.Mean())
	}
}

func TestEvaluateRestriction(t *testing.T) {
	db := buildEvalDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	opts := DefaultEvalOptions()
	opts.Deltas = []float64{0.1}
	opts.QueriesPerStream = 4
	// Restrict every query to its own patient only.
	opts.RestrictFor = func(pid string) map[string]bool {
		return map[string]bool{pid: true}
	}
	res, err := m.Evaluate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() == 0 {
		t.Error("restricted evaluation made no predictions")
	}
}

func TestEvaluateValidation(t *testing.T) {
	db := buildEvalDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	if _, err := m.Evaluate(EvalOptions{}); err == nil {
		t.Error("no deltas accepted")
	}
}

func TestTuneImprovesOrMatchesStart(t *testing.T) {
	db := buildEvalDB(t)
	opts := DefaultEvalOptions()
	opts.Deltas = []float64{0.1, 0.3}
	opts.QueriesPerStream = 4

	start := DefaultParams()
	space := TuneSpace{
		WeightFreq:    []float64{0.25, 0.75},
		DistThreshold: []float64{4, 8},
	}
	res, err := Tune(db, start, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("tuned params invalid: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty tuning trace")
	}
	// The best error must be the minimum of the trace's final sweep.
	for _, step := range res.Trace {
		if step.Error < 0 {
			t.Errorf("negative error in trace: %+v", step)
		}
	}
	if res.BestError <= 0 {
		t.Errorf("BestError = %v", res.BestError)
	}
	// Invalid start rejected.
	bad := DefaultParams()
	bad.WeightAmp = 0
	if _, err := Tune(db, bad, space, opts); err == nil {
		t.Error("invalid start accepted")
	}
}

// TestReplayCutsEqualLegacyLoops: the one cut-point walk visits exactly
// the vertices the six hand-copied loops it replaced visited. legacy is
// their formula, kept here as the reference, in both forms they had: the
// position replay's (end len-1, no cuts when minCut >= len-2) and
// SegmentForecasts' (end and guard len-3, which it now passes itself).
// The position replay is driven end to end, one stream per length, with a
// retrieval that finds nothing and horizon 0, so every cut is attempted and
// reports the vertex its query ends at.
func TestReplayCutsEqualLegacyLoops(t *testing.T) {
	p := DefaultParams()
	minCut := p.MaxQueryVertices() + 2
	legacy := func(n, end, guard int) []int {
		if minCut >= guard {
			return nil
		}
		var cuts []int
		for qi := 0; qi < n; qi++ {
			cuts = append(cuts, minCut+(end-minCut)*qi/n)
		}
		return cuts
	}
	none := func(Query) ([]Match, error) { return nil, nil }
	for length := minCut; length <= minCut+40; length++ {
		db := store.NewDB()
		pt, err := db.AddPatient(store.PatientInfo{ID: "A"})
		if err != nil {
			t.Fatal(err)
		}
		// Unit durations from 0: vertex i is at time i.
		if err := pt.AddStream("A-S1").Append(breathingWindow(0, 10, unitDurs(length-1))...); err != nil {
			t.Fatal(err)
		}
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 4, 6, 12} {
			var got []int
			opts := EvalOptions{Deltas: []float64{0}, QueriesPerStream: n}
			res, err := m.Replay(opts, none, func(a Attempt) { got = append(got, int(a.Query.Now)) })
			if err != nil {
				t.Fatal(err)
			}
			if want := legacy(n, length-1, length-2); !slices.Equal(got, want) {
				t.Errorf("len %d n %d: replay cut at %v, the old loops at %v", length, n, got, want)
			}
			if res.TotalQueries != len(got) || res.PerDelta[0].Attempts != len(got) || res.PerDelta[0].Predictions != 0 {
				t.Errorf("len %d n %d: %d attempts seen, result counts %d queries, %d attempts, %d predictions",
					length, n, len(got), res.TotalQueries, res.PerDelta[0].Attempts, res.PerDelta[0].Predictions)
			}
			if got, want := p.ReplayCuts(length-3, n), legacy(n, length-3, length-3); !slices.Equal(got, want) {
				t.Errorf("len %d n %d: ReplayCuts(len-3) = %v, SegmentForecasts' old loop %v", length, n, got, want)
			}
		}
	}
}
