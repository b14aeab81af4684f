package core

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/sigindex"
	"stsmatch/internal/store"
)

// Params.UseIndex and Matcher.Index are deprecated and ignored: the
// tests below set both, with a built window-signature index attached,
// and hold the matcher to the default one's answers, counts and spans.

func buildIndex(t *testing.T, db *store.DB) *sigindex.Index {
	t.Helper()
	idx, err := sigindex.New(sigindex.Config{MinSegments: 5, MaxSegments: 24, AmpBucket: 4, DurBucket: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx.BuildFrom(db)
	return idx
}

func mustMatcher(t *testing.T, db *store.DB, params Params) *Matcher {
	t.Helper()
	m, err := NewMatcher(db, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// deprecatedMatcher builds a matcher with both deprecated fields set.
func deprecatedMatcher(t *testing.T, db *store.DB, params Params, idx *sigindex.Index) *Matcher {
	t.Helper()
	params.UseIndex = true
	m := mustMatcher(t, db, params)
	m.Index = idx
	return m
}

func assertSameMatches(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: default matcher returned %d matches, deprecated fields set %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d differs:\ndefault:    %+v\ndeprecated: %+v", label, i, want[i], got[i])
		}
	}
}

// sigindexMetrics reads every stsmatch_sigindex_* series off the
// default registry.
func sigindexMetrics() map[string]float64 {
	out := map[string]float64{}
	for _, p := range obs.Default().Gather() {
		if strings.HasPrefix(p.Name, "stsmatch_sigindex_") {
			out[p.Name] = p.Value
		}
	}
	return out
}

// TestIndexScanEquivalence: a matcher with UseIndex set and a built
// index attached answers every search mode, threshold, parallelism,
// query length and restriction byte-identically to the default matcher
// — including the deterministic tie-break order (the extra P4 stream
// duplicates P1/S2's amplitude so equal distances exist) — with equal
// funnel counts (a parallel top-k's split between the lower bound and
// the exact distance aside).
func TestIndexScanEquivalence(t *testing.T) {
	alwaysFanOut(t) // parallelism 2 runs the streams on workers
	db := buildTestDB(t)
	p4, err := db.AddPatient(store.PatientInfo{ID: "P4"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p4.AddStream("S1").Append(breathingWindow(0, 10.5, unitDurs(36))...); err != nil {
		t.Fatal(err)
	}
	idx := buildIndex(t, db)

	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()

	compare := func(t *testing.T, params Params) {
		t.Helper()
		scanM, depM := mustMatcher(t, db, params), deprecatedMatcher(t, db, params, idx)
		same := func(label string, topK bool, search func(m *Matcher) ([]Match, error)) {
			t.Helper()
			want, wantC := searchCounts(t, func() ([]Match, error) { return search(scanM) })
			got, gotC := searchCounts(t, func() ([]Match, error) { return search(depM) })
			assertSameMatches(t, label, want, got)
			if topK && params.Parallelism != 1 {
				// Which of the two stages rejects a window depends on when
				// a worker sees the other's tightened bound.
				wantC.DistRejected += wantC.LBPruned
				gotC.DistRejected += gotC.LBPruned
				wantC.LBPruned, gotC.LBPruned = 0, 0
			}
			if gotC != wantC {
				t.Fatalf("%s: counts %+v, default matcher %+v", label, gotC, wantC)
			}
		}
		// 26 vertices = 25 segments, past what the attached index covers.
		for _, qlen := range []int{10, 20, 26} {
			q := NewQuery(seq[len(seq)-qlen:], "P1", "S1")
			for rname, restrict := range map[string]map[string]bool{
				"all":        nil,
				"restricted": {"P1": true, "P4": true},
			} {
				label := func(mode string) string {
					return mode + "/qlen=" + string(rune('0'+qlen/10)) + string(rune('0'+qlen%10)) + "/" + rname
				}
				same(label("FindSimilar"), false, func(m *Matcher) ([]Match, error) { return m.FindSimilar(q, restrict) })
				for _, k := range []int{1, 3, 50} {
					same(label("TopK"), true, func(m *Matcher) ([]Match, error) { return m.TopK(q, k, restrict) })
				}
			}
		}
	}

	for _, tc := range []struct {
		name      string
		threshold float64
		parallel  int
	}{
		{"default", 8, 2},
		{"serial", 8, 1},
		{"tight-threshold", 0.5, 2},
		{"loose-threshold", 50, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.DistThreshold = tc.threshold
			params.Parallelism = tc.parallel
			compare(t, params)
		})
	}

	t.Run("ablation-ignores-index", func(t *testing.T) {
		// With the state-order filter ablated off every window is a
		// candidate, for either matcher.
		params := DefaultParams()
		params.RequireStateOrder = false
		before := sigindexMetrics()
		compare(t, params)
		if after := sigindexMetrics(); !maps.Equal(after, before) {
			t.Errorf("ablated searches moved the index series: %v -> %v", before, after)
		}
	})

	t.Run("stale-stream-fallback", func(t *testing.T) {
		// Grow one stream behind the attached index's back: the
		// deprecated matcher still sees the appended windows.
		st := db.Patient("P2").StreamBySession("S1")
		last := st.Seq()[st.Len()-1].T
		if err := st.Append(breathingWindow(last+1, 11, unitDurs(6))...); err != nil {
			t.Fatal(err)
		}
		compare(t, DefaultParams())
	})
}

// TestIndexSearchEmitsProbeSpan: a traced search on a matcher with the
// deprecated fields set emits the default matcher's spans — no
// index.probe span, no indexed annotation — and moves no
// stsmatch_sigindex_* series.
func TestIndexSearchEmitsProbeSpan(t *testing.T) {
	db := buildTestDB(t)
	idx := buildIndex(t, db)
	scanM, depM := mustMatcher(t, db, DefaultParams()), deprecatedMatcher(t, db, DefaultParams(), idx)

	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")

	// traced runs a k=50 top-k search under a fresh trace and returns its
	// span names and the matcher.search span.
	traced := func(m *Matcher) ([]string, obs.SpanData) {
		col := obs.NewCollector(4, time.Hour)
		root := obs.StartTrace("test.query", "test", obs.SpanContext{}, col)
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := m.TopKCtx(ctx, q, 50, nil); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		recent := col.Recent()
		if len(recent) != 1 {
			t.Fatalf("collector holds %d traces, want 1", len(recent))
		}
		spans := names(recent[0].Spans)
		slices.Sort(spans)
		for _, sd := range recent[0].Spans {
			if sd.Name == "matcher.search" {
				return spans, sd
			}
		}
		t.Fatalf("no matcher.search span; got %v", spans)
		return nil, obs.SpanData{}
	}

	want, _ := traced(scanM)
	before := sigindexMetrics()
	got, search := traced(depM)
	if after := sigindexMetrics(); !maps.Equal(after, before) {
		t.Errorf("search moved the index series: %v -> %v", before, after)
	}
	if !slices.Equal(got, want) {
		t.Errorf("spans %v, default matcher %v", got, want)
	}
	if slices.Contains(got, "index.probe") {
		t.Error("search emitted an index.probe span")
	}
	if _, ok := search.Attrs["indexed"]; ok {
		t.Error("matcher.search span annotated indexed")
	}
}
