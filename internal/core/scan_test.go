package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/store"
)

// scanCorpus builds streams patients of one session each, every stream
// perStream vertices of jittered breathing, n-gram indexed.
func scanCorpus(t testing.TB, seed int64, streams, perStream int) *store.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := store.NewDB()
	for i := 0; i < streams; i++ {
		p, err := db.AddPatient(store.PatientInfo{ID: fmt.Sprintf("P%03d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddStream("S1").Append(randomBreathing(rng, perStream)...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// regularQuery cuts a qn-vertex window of regular breathing out of the
// stream, so that the corpus holds many windows of its state order.
func regularQuery(t testing.TB, st *store.Stream, qn int) Query {
	t.Helper()
	seq := st.Seq()
	want := breathingWindow(0, 1, unitDurs(qn-1))
	for from := len(seq) / 2; from+qn <= len(seq); from++ {
		if statesEqual(seq[from:from+qn], want) {
			return NewQuery(seq[from:from+qn], st.PatientID, st.SessionID)
		}
	}
	t.Fatal("fixture: no regular stretch in the stream")
	return Query{}
}

// TestSearchAllocsConstant: a steady-state search allocates for its
// plan and its result only — nothing that grows with the number of
// streams, candidates or matches — and evaluating one arriving vertex
// against a standing query allocates nothing unless it matches. Its
// TopK asks one query again and again, so it measures a repair of the
// kept answer; TestTopKMissAllocsConstant measures a top-k search that
// runs the funnel over everything.
func TestSearchAllocsConstant(t *testing.T) {
	perCorpus := map[int][3]float64{}
	matched := map[int]int{}
	for _, streams := range []int{4, 64} {
		db := scanCorpus(t, 1, streams, 400)
		p := DefaultParams()
		p.Parallelism = 1
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		q := regularQuery(t, db.Streams()[0], 10)
		far := q
		far.Seq = q.Seq.Clone()
		for i := range far.Seq {
			far.Seq[i].Pos[0] *= 40 // nothing in the corpus is this large
		}
		topk := testing.AllocsPerRun(20, func() {
			if got, err := m.TopK(q, 10, nil); err != nil || len(got) != 10 {
				t.Fatalf("TopK: %d matches, err %v", len(got), err)
			}
		})
		empty := testing.AllocsPerRun(20, func() {
			if got, err := m.FindSimilar(far, nil); err != nil || len(got) != 0 {
				t.Fatalf("FindSimilar: %d matches, err %v", len(got), err)
			}
		})
		// The hit buffers and the ordering scratch are the matcher's,
		// sized by the warm-up run: a result costs its own slice.
		all := testing.AllocsPerRun(20, func() {
			got, err := m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			matched[streams] = len(got)
		})
		perCorpus[streams] = [3]float64{topk, empty, all}
		if topk > 10 || empty > 10 || all > 10 {
			t.Errorf("%d streams: TopK allocates %v times, an empty FindSimilar %v, a full one %v; want <= 10", streams, topk, empty, all)
		}
	}
	if perCorpus[4] != perCorpus[64] {
		t.Errorf("allocations grow with the corpus: 4 streams %v, 64 streams %v (TopK, empty FindSimilar, full FindSimilar)", perCorpus[4], perCorpus[64])
	}
	if matched[4] < 48 || matched[64] < 8*matched[4] {
		t.Errorf("fixture: FindSimilar matched %d windows of 4 streams and %d of 64; want many buckets and a result that grows", matched[4], matched[64])
	}

	db := scanCorpus(t, 1, 1, 400)
	st := db.Streams()[0]
	far := regularQuery(t, st, 10)
	far.Seq = far.Seq.Clone()
	for i := range far.Seq {
		far.Seq[i].Pos[0] *= 40
	}
	sq, err := NewStandingQuery(DefaultParams(), Query{Seq: far.Seq, PatientID: "Q"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := st.Len() - 1
	if allocs := testing.AllocsPerRun(50, func() {
		if got, counts, _ := sq.EvalRange(st, end, end+1); len(got) != 0 || counts.Windows != 1 {
			t.Fatalf("EvalRange: %d matches over %d windows", len(got), counts.Windows)
		}
	}); allocs != 0 {
		t.Errorf("a one-vertex EvalRange without a match allocates %v times, want 0", allocs)
	}
}

// bruteForce is the oracle of TestSearchEqualsBruteForce: every window
// of every stream, the exported Params.Distance, the matchCmp order.
func bruteForce(t *testing.T, db *store.DB, p Params, q Query, k int, threshold float64) []Match {
	t.Helper()
	n := len(q.Seq)
	var all []Match
	for ord, st := range db.Streams() {
		seq, rel := st.Seq(), relationOf(q, st)
		for j := 0; j+n <= len(seq); j++ {
			cand := seq[j : j+n]
			if rel == SameSession && cand[n-1].T >= q.Seq[0].T {
				continue
			}
			if !statesEqual(q.Seq, cand) {
				continue
			}
			d, err := p.Distance(q.Seq, cand, rel)
			if err != nil {
				t.Fatal(err)
			}
			if d <= threshold {
				all = append(all, Match{Stream: st, Start: j, N: n, Relation: rel,
					Distance: d, Weight: p.StreamWeight(rel) / (1 + d), ord: int32(ord)})
			}
		}
	}
	slices.SortFunc(all, matchCmp)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// TestSearchEqualsBruteForce: the three search modes return exactly
// what a brute-force scan with the exported distance returns, over a
// corpus with a same-session stream, a same-patient stream and two
// byte-identical streams registered under one patient and session.
func TestSearchEqualsBruteForce(t *testing.T) {
	alwaysFanOut(t)
	rng := rand.New(rand.NewSource(11))
	db := scanCorpus(t, 11, 6, 300)
	p0 := db.Patient("P000")
	if err := p0.AddStream("S2").Append(randomBreathing(rng, 300)...); err != nil {
		t.Fatal(err)
	}
	dup := randomBreathing(rng, 200)
	for i := 0; i < 2; i++ {
		if err := db.Patient("P001").AddStream("dup").Append(dup.Clone()...); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 3} {
		p := DefaultParams()
		p.Parallelism = par
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, qn := range []int{4, 10, 13} { // 4: a signature shorter than an n-gram
			for _, src := range []*store.Stream{p0.Streams[0], db.Patient("P001").Streams[1]} {
				q := regularQuery(t, src, qn)
				label := fmt.Sprintf("par=%d qn=%d src=%s/%s", par, qn, src.PatientID, src.SessionID)
				got, err := m.TopK(q, 7, nil)
				if err != nil {
					t.Fatal(err)
				}
				matchesIdentical(t, label+" TopK", bruteForce(t, db, p, q, 7, inf), got)
				got, err = m.FindSimilar(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForce(t, db, p, q, 0, p.DistThreshold)
				matchesIdentical(t, label+" FindSimilar", want, got)
				if len(want) < 8 {
					t.Errorf("%s: fixture has only %d matches within the threshold", label, len(want))
				}
				got, err = m.TopK(q, 5, nil)
				if err != nil {
					t.Fatal(err)
				}
				matchesIdentical(t, label+" TopK k=5", want[:5], got)
			}
		}
	}
}

// TestFanOutCutoff: a corpus below fanOutMinVertices is searched on the
// calling goroutine whatever Parallelism allows; above it Parallelism
// (capped by the stream count) decides.
func TestFanOutCutoff(t *testing.T) {
	p := DefaultParams()
	p.Parallelism = 4
	for _, tc := range []struct{ streams, perStream, want int }{
		{8, 100, 1},
		{8, fanOutMinVertices/8 + 1, 4},
		{2, fanOutMinVertices, 2},
	} {
		db := scanCorpus(t, 3, tc.streams, tc.perStream)
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.fanOut(db.Streams()); got != tc.want {
			t.Errorf("%d streams x %d vertices: %d workers, want %d", tc.streams, tc.perStream, got, tc.want)
		}
	}
}

// TestTracedSearchClockReads: a traced search reads the stage clock a
// bounded number of times per stream block — three laps and, per
// stream, one start — however many candidates the streams hold.
func TestTracedSearchClockReads(t *testing.T) {
	var reads atomic.Int64
	now = func() time.Time { reads.Add(1); return time.Now() }
	t.Cleanup(func() { now = time.Now })

	const streams = 16
	perSearch := map[int]int64{}
	for _, perStream := range []int{120, 480} { // both within one pass block
		db := scanCorpus(t, 5, streams, perStream)
		p := DefaultParams()
		p.Parallelism = 1
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		q := regularQuery(t, db.Streams()[0], 10)
		root := obs.StartTrace("test.query", "test", obs.SpanContext{}, obs.NewCollector(1, time.Hour))
		before := registryCounts()
		reads.Store(0)
		if _, err := m.TopKCtx(obs.ContextWithSpan(context.Background(), root), q, 10, nil); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		perSearch[perStream] = reads.Load()
		if scanned := registryCounts().Windows - before.Windows; scanned < streams*(perStream-10) {
			t.Fatalf("fixture: the search considered only %d windows", scanned)
		}
		if got := reads.Load(); got == 0 || got > 4*streams {
			t.Errorf("%d-vertex streams: %d stage-clock reads, want 1..%d (4 per stream)", perStream, got, 4*streams)
		}
		// A fresh matcher: the same query again on m would be a repair.
		reads.Store(0)
		if _, err := mustMatcher(t, db, p).TopK(q, 10, nil); err != nil {
			t.Fatal(err)
		}
		if got := reads.Load(); got != 0 {
			t.Errorf("an untraced search read the stage clock %d times", got)
		}
	}
	if perSearch[120] != perSearch[480] {
		t.Errorf("clock reads grow with the candidate count: %d for 120-vertex streams, %d for 480", perSearch[120], perSearch[480])
	}
}

// TestThresholdStagesCoverSearch: the stage durations of a traced
// sequential threshold search add up to its matcher.search span — in
// particular funnel.topk_merge spans ordering the hits and building the
// result, the largest piece of a search with thousands of matches, and
// not just a sort. Timing: the best of a few searches must come within
// 5 %.
func TestThresholdStagesCoverSearch(t *testing.T) {
	db := scanCorpus(t, 1, 64, 400)
	p := DefaultParams()
	p.Parallelism = 1
	m, err := NewMatcher(db, p)
	if err != nil {
		t.Fatal(err)
	}
	q := regularQuery(t, db.Streams()[0], 10)
	far := q
	far.Seq = q.Seq.Clone()
	for i := range far.Seq {
		far.Seq[i].Pos[0] *= 40
	}
	best := 0.0
	for try := 0; try < 12 && best < 0.95; try++ {
		// Another query in between, so that the traced one runs the funnel
		// rather than being answered from the kept retrieval.
		if _, err := m.FindSimilar(far, nil); err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector(1, time.Hour)
		root := obs.StartTrace("test.query", "test", obs.SpanContext{}, col)
		got, err := m.FindSimilarCtx(obs.ContextWithSpan(context.Background(), root), q, nil)
		root.Finish()
		if err != nil || len(got) < 1000 {
			t.Fatalf("fixture: %d matches, err %v", len(got), err)
		}
		var stages, search int64
		for _, sd := range col.Recent()[0].Spans {
			switch {
			case sd.Name == "matcher.search":
				search = sd.DurationNS
			case strings.HasPrefix(sd.Name, "funnel."):
				stages += sd.DurationNS
			}
		}
		best = max(best, float64(stages)/float64(search))
	}
	if best < 0.95 {
		t.Errorf("funnel stages cover at best %.1f %% of matcher.search, want >= 95 %%", 100*best)
	}
}

// TestSearchUnderConcurrentAppend (run under -race): searches running
// while a writer appends to a corpus stream see, per stream, one
// consistent view — their funnel counts partition and no match reaches
// beyond its stream.
func TestSearchUnderConcurrentAppend(t *testing.T) {
	alwaysFanOut(t)
	db := scanCorpus(t, 9, 4, 200)
	grow := db.Streams()[1]
	more := randomBreathing(rand.New(rand.NewSource(10)), 600)
	for i := range more {
		more[i].T += 1e4
	}
	p := DefaultParams()
	p.Parallelism = 2
	m, err := NewMatcher(db, p)
	if err != nil {
		t.Fatal(err)
	}
	q := regularQuery(t, db.Streams()[0], 10)

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := range more {
			if err := grow.Append(more[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for searching := true; searching; {
		select {
		case <-appended:
			searching = false // one last search over the final corpus
		default:
		}
		got, c := searchCounts(t, func() ([]Match, error) { return m.FindSimilar(q, nil) })
		if !partitions(c) || c.Matched != len(got) {
			t.Fatalf("counts do not partition: %+v for %d matches", c, len(got))
		}
		for _, mt := range got {
			if mt.Start+mt.N > mt.Stream.Len() {
				t.Fatalf("match at %d+%d reaches beyond its %d-vertex stream", mt.Start, mt.N, mt.Stream.Len())
			}
		}
	}
}
