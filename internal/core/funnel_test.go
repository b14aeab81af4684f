package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// partitions reports the FunnelCounts identity: every window the
// candidate source ranged over landed in exactly one bucket.
func partitions(c FunnelCounts) bool {
	return c.Windows == c.StateRejected+c.SelfExcluded+c.LBPruned+c.DistRejected+c.Matched
}

// registryCounts reads the funnel counters back from the registry in
// FunnelCounts form (the inverse of FunnelCounts.record).
func registryCounts() FunnelCounts {
	m := funnelMetrics()
	get := func(name string) int { return int(m["stsmatch_matcher_"+name+"_total"]) }
	c := FunnelCounts{
		StateRejected: get("index_pruned"),
		SelfExcluded:  get("self_excluded"),
		LBPruned:      get("lb_pruned"),
		DistRejected:  get("distance_rejected"),
		Matched:       get("matches"),
	}
	c.Windows = get("candidates_scanned") + c.StateRejected
	return c
}

// searchCounts runs one search and returns what it added to the
// registry.
func searchCounts(t *testing.T, search func() ([]Match, error)) ([]Match, FunnelCounts) {
	t.Helper()
	before := registryCounts()
	out, err := search()
	if err != nil {
		t.Fatal(err)
	}
	after := registryCounts()
	return out, FunnelCounts{
		Windows:       after.Windows - before.Windows,
		StateRejected: after.StateRejected - before.StateRejected,
		SelfExcluded:  after.SelfExcluded - before.SelfExcluded,
		LBPruned:      after.LBPruned - before.LBPruned,
		DistRejected:  after.DistRejected - before.DistRejected,
		Matched:       after.Matched - before.Matched,
	}
}

// TestFunnelCountsPartitionUnderAppend: a funnel run over a view taken
// before an append counts and scores exactly the view's windows. The
// candidate list and the vertices come from the same lock acquisition,
// so no start can lie beyond the vertices (the old driver took its start
// list after its snapshot and had to clip it).
func TestFunnelCountsPartitionUnderAppend(t *testing.T) {
	db := buildTestDB(t)
	st := db.Patient("P2").StreamBySession("S1")
	own := db.Patient("P1").StreamBySession("S1").Seq()
	pl, err := newQueryPlan(DefaultParams(), NewQuery(own[len(own)-10:], "P1", "S1"), own[len(own)-10:].StateSignature(), DefaultParams().DistThreshold, nil)
	if err != nil {
		t.Fatal(err)
	}

	c := candidateSet{view: st.ScanView(pl.scanSig), sig: pl.scanSig, starts: make([]int32, 8), lbs: make([]float64, 8)}
	c.hi = c.view.Len()
	if !c.view.Listed || len(c.view.Postings) == 0 {
		t.Fatal("fixture: the indexed stream lists no postings")
	}
	possible := c.view.Len() - pl.n + 1
	// The append lands between taking the view and running the funnel.
	last := c.view.T[c.view.Len()-1]
	if err := st.Append(breathingWindow(last+1, 11, unitDurs(12))...); err != nil {
		t.Fatal(err)
	}
	if late := st.FindWindows(pl.scanSig); late[len(late)-1] < possible {
		t.Fatal("fixture: the append completed no window beyond the view")
	}

	var w workerState
	w.hits = pl.run(&w, st, relationOf(pl.q, st), 0, &c, nil)
	if w.counts.Windows != possible {
		t.Errorf("Windows = %d, want the view's %d", w.counts.Windows, possible)
	}
	if !partitions(w.counts) {
		t.Errorf("counts do not partition: %+v", w.counts)
	}
	if len(w.hits) == 0 {
		t.Error("fixture: no match in the view")
	}
	for _, h := range w.hits {
		if int(h.start)+pl.n > c.view.Len() {
			t.Errorf("match at %d reaches beyond the %d-vertex view", h.start, c.view.Len())
		}
	}
}

// TestFunnelCountsPartitionAllSources: the identity holds whichever
// candidate source fed the driver, in threshold and top-k mode, and a
// matcher with the deprecated index fields set counts exactly what the
// scan counts.
func TestFunnelCountsPartitionAllSources(t *testing.T) {
	db := buildTestDB(t)
	idx := buildIndex(t, db)
	// P5 arrives after the index was built, which changes nothing: the
	// index is ignored.
	p5, err := db.AddPatient(store.PatientInfo{ID: "P5"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p5.AddStream("S1").Append(breathingWindow(0, 10.2, unitDurs(36))...); err != nil {
		t.Fatal(err)
	}
	own := db.Patient("P1").StreamBySession("S1").Seq()
	q := NewQuery(own[len(own)-10:], "P1", "S1")

	ablation := DefaultParams()
	ablation.RequireStateOrder = false
	counts := map[string]FunnelCounts{}
	for _, src := range []struct {
		name string
		m    *Matcher
	}{
		{"scan", mustMatcher(t, db, DefaultParams())},
		{"ablation", mustMatcher(t, db, ablation)},
		{"deprecated", deprecatedMatcher(t, db, DefaultParams(), idx)},
	} {
		m := src.m
		for _, mode := range []struct {
			name   string
			search func() ([]Match, error)
		}{
			{"threshold", func() ([]Match, error) { return m.FindSimilar(q, nil) }},
			{"top3", func() ([]Match, error) { return m.TopK(q, 3, nil) }},
			// k beyond the candidate count.
			{"top50", func() ([]Match, error) { return m.TopK(q, 50, nil) }},
		} {
			out, c := searchCounts(t, mode.search)
			label := src.name + "/" + mode.name
			if !partitions(c) {
				t.Errorf("%s: counts do not partition: %+v", label, c)
			}
			if c.Matched != len(out) {
				t.Errorf("%s: Matched = %d, returned %d", label, c.Matched, len(out))
			}
			counts[label] = c
		}
	}
	for _, mode := range []string{"threshold", "top3", "top50"} {
		if s, d := counts["scan/"+mode], counts["deprecated/"+mode]; s != d || s.Windows == 0 {
			t.Errorf("%s: scan counted %+v, deprecated fields set %+v (want equal, nonzero)", mode, s, d)
		}
	}
}

// TestFunnelCountsEqualSingleStageBound: splitting pass 2 into the
// amplitude-first stage and the full bound moves no window between
// FunnelCounts buckets and changes no result, whichever candidate
// source feeds the driver, in threshold mode and top-k, and with the
// deprecated index fields set or not. The
// reference is the same driver with stage A switched off: stageAGuard
// = 1 zeroes its scale, so every candidate takes the full bound, which
// is what pass 2 was before the split.
func TestFunnelCountsEqualSingleStageBound(t *testing.T) {
	db := scanCorpus(t, 5, 12, 300)
	idx := buildIndex(t, db)
	q := regularQuery(t, db.Streams()[0], 10)
	// At this threshold each stage has work: stage A discards a third of
	// the corpus' same-order windows, the full bound a few it let through.
	tight := DefaultParams()
	tight.DistThreshold = 3
	tight.Parallelism = 1
	ablation := tight
	ablation.RequireStateOrder = false
	pl, err := newQueryPlan(tight, q, q.Seq.StateSignature(), tight.DistThreshold, nil)
	if err != nil {
		t.Fatal(err)
	}
	byA, byFull := 0, 0
	for _, st := range db.Streams() {
		seq, amps := st.Snapshot()
		for _, j := range st.FindWindows(pl.scanSig) {
			ampC, rel := amps[j+pl.n-1]-amps[j], relationOf(q, st)
			if pl.lowerBoundAmp(pl.ampBound(rel), ampC) > pl.threshold {
				byA++
			} else if pl.lowerBound(ampC, seq[j+pl.n-1].T-seq[j].T, rel) > pl.threshold {
				byFull++
			}
		}
	}
	if byA < 100 || byFull == 0 {
		t.Fatalf("fixture: stage A prunes %d windows, the full bound %d more", byA, byFull)
	}

	type outcome struct {
		matches []Match
		counts  FunnelCounts
	}
	run := func(guard float64) map[string]outcome {
		defer func(old float64) { stageAGuard = old }(stageAGuard)
		stageAGuard = guard
		if a := pl.ampBound(OtherPatient); (a.scale == 0) != (guard == 1) {
			t.Fatalf("guard %v: stage-A scale %v", guard, a.scale)
		}
		got := map[string]outcome{}
		for _, src := range []struct {
			name string
			m    *Matcher
		}{
			{"scan", mustMatcher(t, db, tight)},
			{"ablation", mustMatcher(t, db, ablation)},
			{"deprecated", deprecatedMatcher(t, db, tight, idx)},
		} {
			m := src.m
			for _, k := range []int{0, 1, 10} {
				out, c := searchCounts(t, func() ([]Match, error) {
					if k == 0 {
						return m.FindSimilar(q, nil)
					}
					return m.TopK(q, k, nil)
				})
				got[fmt.Sprintf("%s/k=%d", src.name, k)] = outcome{out, c}
			}
		}
		// Standing: every stream fed to the query seven vertices at a time.
		sq, err := NewStandingQuery(tight, Query{Seq: q.Seq, PatientID: "Q"}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		for _, st := range db.Streams() {
			for from := 0; from < st.Len(); from += 7 {
				ms, c, _ := sq.EvalRange(st, from, min(from+7, st.Len()))
				o.matches = append(o.matches, ms...)
				o.counts.Add(c)
			}
		}
		got["standing"] = o
		return got
	}

	split, single := run(stageAGuard), run(1)
	for label, want := range single {
		got := split[label]
		if got.counts != want.counts {
			t.Errorf("%s: counts %+v, with the full bound alone %+v", label, got.counts, want.counts)
		}
		if !partitions(got.counts) || got.counts.LBPruned == 0 || got.counts.Matched == 0 {
			t.Errorf("%s: fixture or identity: %+v", label, got.counts)
		}
		assertSameMatches(t, label, want.matches, got.matches)
	}
	for _, k := range []string{"0", "1", "10"} {
		s, d := split["scan/k="+k], split["deprecated/k="+k]
		if d.counts != s.counts {
			t.Errorf("k=%s: deprecated fields set counted %+v, scan %+v", k, d.counts, s.counts)
		}
		assertSameMatches(t, "deprecated/k="+k, s.matches, d.matches)
	}
}

// randomBreathing builds n vertices of breathing-like motion with
// jittered amplitudes and durations; about one segment in twelve is
// irregular, so windows disagree on state order.
func randomBreathing(rng *rand.Rand, n int) plr.Sequence {
	states := []plr.State{plr.EX, plr.EOE, plr.IN}
	out := make(plr.Sequence, n)
	t, y := 0.0, 10.0
	for i := range out {
		st := states[i%3]
		if rng.Intn(12) == 0 {
			st = plr.IRR
		}
		out[i] = plr.Vertex{T: t, Pos: []float64{y}, State: st}
		t += 0.8 + 0.4*rng.Float64()
		switch st {
		case plr.EX:
			y -= 7 + 6*rng.Float64()
		case plr.IN:
			y += 7 + 6*rng.Float64()
		case plr.IRR:
			y += 4 * (rng.Float64() - 0.5)
		}
	}
	return out
}

// TestStandingEqualsSearchDiff is the core-level proof behind the
// subscription subsystem: feeding a stream to a standing query in
// arbitrary append batches yields, batch by batch, exactly the matches
// a full FindSimilar gains from that batch — same windows, distances
// and weights — because both are the same funnel driver over different
// candidate sets.
func TestStandingEqualsSearchDiff(t *testing.T) {
	const qn = 7
	for _, tc := range []struct {
		name       string
		stateOrder bool
		sameStream bool
		seed       int64
	}{
		{"other-patient", true, false, 0},
		{"other-patient/ablation", false, false, 2},
		{"same-session", true, true, 4},
		{"same-session/ablation", false, true, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			full := randomBreathing(rng, 160)
			params := DefaultParams()
			params.RequireStateOrder = tc.stateOrder
			params.DistThreshold = 5

			// The pattern is a regular stretch of the stream itself. For
			// the same-session case its clock is moved to mid-stream, so
			// self-exclusion admits the first half of the stream's
			// windows and rejects the rest.
			from := 30
			for !statesEqual(full[from:from+qn], breathingWindow(0, 1, unitDurs(qn-1))) {
				from++
			}
			pattern := full[from : from+qn].Clone()
			q := Query{Seq: pattern, PatientID: "Q"}
			if tc.sameStream {
				shift := full[len(full)/2].T - pattern[0].T
				for i := range pattern {
					pattern[i].T += shift
				}
				q = NewQuery(pattern, "P1", "S1")
			}

			db := store.NewDB()
			p1, err := db.AddPatient(store.PatientInfo{ID: "P1"})
			if err != nil {
				t.Fatal(err)
			}
			st := p1.AddStream("S1")
			sq, err := NewStandingQuery(params, q, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewStandingQuery(params, q, 0, 1); err == nil {
				t.Error("NewStandingQuery took k = 1: a standing query delivers every match")
			}
			m, err := NewMatcher(db, params)
			if err != nil {
				t.Fatal(err)
			}

			var total FunnelCounts
			emitted := 0
			for done := 0; done < len(full); {
				batch := 1 + rng.Intn(12)
				if done+batch > len(full) {
					batch = len(full) - done
				}
				if err := st.Append(full[done : done+batch]...); err != nil {
					t.Fatal(err)
				}
				got, counts, err := sq.EvalRange(st, done, done+batch)
				if err != nil {
					t.Fatal(err)
				}
				if !partitions(counts) {
					t.Fatalf("batch at %d: counts do not partition: %+v", done, counts)
				}
				if counts.Matched != len(got) {
					t.Fatalf("batch at %d: Matched = %d, emitted %d", done, counts.Matched, len(got))
				}
				total.Add(counts)

				// The oracle: what a full search gained from this batch, in
				// stream order.
				all, err := m.FindSimilar(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				var want []Match
				for _, mt := range all {
					if end := mt.Start + mt.N - 1; end >= done && end < done+batch {
						want = append(want, mt)
					}
				}
				sort.Slice(want, func(a, b int) bool { return want[a].Start < want[b].Start })
				if len(got) != len(want) {
					t.Fatalf("batch at %d: standing emitted %d matches, search diff has %d", done, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("batch at %d match %d:\nstanding: %+v\nsearch:   %+v", done, i, got[i], want[i])
					}
				}
				emitted += len(got)
				done += batch
			}
			if emitted == 0 {
				t.Error("fixture: no match emitted")
			}
			if want := len(full) - qn + 1; total.Windows != want {
				t.Errorf("standing considered %d windows over the stream's life, want every one of %d", total.Windows, want)
			}
			if tc.sameStream == (total.SelfExcluded == 0) {
				t.Errorf("self-excluded %d windows with sameStream=%v", total.SelfExcluded, tc.sameStream)
			}
			if !tc.stateOrder && total.StateRejected != 0 {
				t.Errorf("ablation rejected %d windows on state order", total.StateRejected)
			}
		})
	}
}
