package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/sigindex"
	"stsmatch/internal/store"
)

// testIndexConfig covers every query length the equivalence suite
// probes with (5..24 segments).
func testIndexCfg() sigindex.Config {
	return sigindex.Config{MinSegments: 5, MaxSegments: 24, AmpBucket: 4, DurBucket: 4}
}

func buildIndex(t *testing.T, db *store.DB) *sigindex.Index {
	t.Helper()
	idx, err := sigindex.New(testIndexCfg())
	if err != nil {
		t.Fatal(err)
	}
	idx.BuildFrom(db)
	return idx
}

func assertSameMatches(t *testing.T, label string, scan, probed []Match) {
	t.Helper()
	if len(scan) != len(probed) {
		t.Fatalf("%s: scan returned %d matches, probed %d", label, len(scan), len(probed))
	}
	for i := range scan {
		if scan[i] != probed[i] {
			t.Fatalf("%s: result %d differs:\nscan:   %+v\nprobed: %+v", label, i, scan[i], probed[i])
		}
	}
}

func sigindexMetric(name string) float64 {
	for _, p := range obs.Default().Gather() {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// TestIndexScanEquivalence is the core index contract: for every
// search mode, threshold, parallelism, query length and restriction,
// the probed path returns results byte-identical to the full scan —
// including the deterministic tie-break order (the extra P4 stream
// duplicates P1/S2's amplitude so equal distances exist).
func TestIndexScanEquivalence(t *testing.T) {
	alwaysFanOut(t) // the "default" cases cover the probed lists on workers
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

	compare := func(t *testing.T, scanM, probeM *Matcher) {
		t.Helper()
		// 26 vertices = 25 segments, outside the indexed window range:
		// the matcher must transparently revert to the scan path.
		for _, qlen := range []int{10, 20, 26} {
			q := NewQuery(seq[len(seq)-qlen:], "P1", "S1")
			for rname, restrict := range map[string]map[string]bool{
				"all":        nil,
				"restricted": {"P1": true, "P4": true},
			} {
				label := func(mode string) string {
					return mode + "/qlen=" + string(rune('0'+qlen/10)) + string(rune('0'+qlen%10)) + "/" + rname
				}
				a, err := scanM.FindSimilar(q, restrict)
				if err != nil {
					t.Fatal(err)
				}
				b, err := probeM.FindSimilar(q, restrict)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, label("FindSimilar"), a, b)
				for _, k := range []int{1, 3, 50} {
					a, err := scanM.TopK(q, k, restrict)
					if err != nil {
						t.Fatal(err)
					}
					b, err := probeM.TopK(q, k, restrict)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, label("TopK"), a, b)
					a, err = scanM.FindSimilarTopK(q, k, restrict)
					if err != nil {
						t.Fatal(err)
					}
					b, err = probeM.FindSimilarTopK(q, k, restrict)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, label("FindSimilarTopK"), a, b)
				}
			}
		}
	}

	matchers := func(t *testing.T, params Params) (scanM, probeM *Matcher) {
		t.Helper()
		scanM, err := NewMatcher(db, params)
		if err != nil {
			t.Fatal(err)
		}
		params.UseIndex = true
		probeM, err = NewMatcher(db, params)
		if err != nil {
			t.Fatal(err)
		}
		probeM.Index = idx
		return scanM, probeM
	}

	for _, tc := range []struct {
		name      string
		threshold float64
		parallel  int
	}{
		{"default", 8, 0},
		{"serial", 8, 1},
		{"tight-threshold", 0.5, 0},
		{"loose-threshold", 50, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.DistThreshold = tc.threshold
			params.Parallelism = tc.parallel
			scanM, probeM := matchers(t, params)
			compare(t, scanM, probeM)
		})
	}

	t.Run("ablation-ignores-index", func(t *testing.T) {
		// With the state-order filter ablated off the index cannot
		// enumerate candidates; the matcher must not even probe it.
		params := DefaultParams()
		params.RequireStateOrder = false
		scanM, probeM := matchers(t, params)
		q := NewQuery(seq[len(seq)-10:], "P1", "S1")
		before := sigindexMetric("stsmatch_sigindex_probes_total")
		a, err := scanM.FindSimilar(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := probeM.FindSimilar(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "ablation", a, b)
		if after := sigindexMetric("stsmatch_sigindex_probes_total"); after != before {
			t.Errorf("ablated search probed the index (%v probes)", after-before)
		}
	})

	t.Run("stale-stream-fallback", func(t *testing.T) {
		// Grow one stream behind the index's back: its coverage goes
		// stale and the matcher must scan that stream while still
		// probing the rest.
		st := db.Patient("P2").StreamBySession("S1")
		last := st.Seq()[st.Len()-1].T
		if err := st.Append(breathingWindow(last+1, 11, unitDurs(6))...); err != nil {
			t.Fatal(err)
		}
		scanM, probeM := matchers(t, DefaultParams())
		compare(t, scanM, probeM)
	})
}

// TestIndexSearchEmitsProbeSpan pins the probe-telemetry contract: a
// traced index-backed search emits one index.probe span whose counts
// equal exactly what the same search added to the stsmatch_sigindex_*
// metrics.
func TestIndexSearchEmitsProbeSpan(t *testing.T) {
	db := buildTestDB(t)
	idx := buildIndex(t, db)
	params := DefaultParams()
	params.UseIndex = true
	m, err := NewMatcher(db, params)
	if err != nil {
		t.Fatal(err)
	}
	m.Index = idx

	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")

	col := obs.NewCollector(4, time.Hour)
	root := obs.StartTrace("test.query", "test", obs.SpanContext{}, col)
	ctx := obs.ContextWithSpan(context.Background(), root)

	sigMetrics := func() map[string]float64 {
		out := map[string]float64{}
		for _, p := range obs.Default().Gather() {
			if strings.HasPrefix(p.Name, "stsmatch_sigindex_") {
				out[p.Name] = p.Value
			}
		}
		return out
	}
	before := sigMetrics()
	// k well past the candidate count forces widening rounds until the
	// probe turns exhaustive.
	if _, err := m.TopKCtx(ctx, q, 50, nil); err != nil {
		t.Fatal(err)
	}
	after := sigMetrics()
	root.Finish()

	recent := col.Recent()
	if len(recent) != 1 {
		t.Fatalf("collector holds %d traces, want 1", len(recent))
	}
	spans := map[string]obs.SpanData{}
	for _, sd := range recent[0].Spans {
		spans[sd.Name] = sd
	}
	search, ok := spans["matcher.search"]
	if !ok {
		t.Fatalf("no matcher.search span; got %v", names(recent[0].Spans))
	}
	probe, ok := spans["index.probe"]
	if !ok {
		t.Fatalf("no index.probe span; got %v", names(recent[0].Spans))
	}
	if probe.ParentID != search.SpanID {
		t.Errorf("index.probe parent = %s, want matcher.search %s", probe.ParentID, search.SpanID)
	}
	if got, _ := search.Attrs["indexed"].(bool); !got {
		t.Error("matcher.search span not annotated indexed=true")
	}

	delta := func(name string) int {
		full := "stsmatch_sigindex_" + name
		return int(after[full] - before[full])
	}
	probes, _ := probe.Attrs["probes"].(int)
	if want := delta("probes_total"); probes != want || probes == 0 {
		t.Errorf("probes attr = %d, metric delta = %d (want equal, nonzero)", probes, want)
	}
	widenings, _ := probe.Attrs["widenings"].(int)
	if want := delta("widenings_total"); widenings != want {
		t.Errorf("widenings attr = %d, metric delta = %d", widenings, want)
	}
	if widenings == 0 {
		t.Error("k=50 top-k search should have widened at least once")
	}
	rounds, _ := probe.Attrs["rounds"].(int)
	if rounds != probes {
		t.Errorf("rounds = %d, probes = %d (one probe per round)", rounds, probes)
	}
	if rounds != widenings+1 {
		t.Errorf("rounds = %d, widenings = %d (every round after the first widens)", rounds, widenings)
	}
	windows, _ := probe.Attrs["windows"].(int64)
	if got := after["stsmatch_sigindex_windows"]; float64(windows) != got {
		t.Errorf("windows attr = %d, gauge = %v", windows, got)
	}
	if fb, _ := probe.Attrs["fallbackStreams"].(int); fb != 0 {
		t.Errorf("fallbackStreams = %d on a fully covered database", fb)
	}
	if cand, _ := probe.Attrs["candidates"].(int); cand <= 0 {
		t.Errorf("candidates attr = %d, want > 0", cand)
	}
}
