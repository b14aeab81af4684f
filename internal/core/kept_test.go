package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

// sameMatchBits asserts two results are the same list of Match values,
// the stream-list ordinal and the float bits included.
func sameMatchBits(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Stream != w.Stream || g.Start != w.Start || g.N != w.N || g.Relation != w.Relation || g.ord != w.ord ||
			!sameFloat(g.Distance, w.Distance) || !sameFloat(g.Weight, w.Weight) {
			t.Fatalf("%s: match %d is %+v, want %+v", label, i, g, w)
		}
	}
}

// TestKeptRetrievalEqualsFreshMatcher: a matcher that keeps its last
// threshold retrieval answers every FindSimilar, PredictDisplacementCtx,
// TopK and restricted search, bit for bit, as a matcher built afresh for
// that one answer does — across a moved Now, appends that land a vertex
// and appends that land none, to the query's own stream and to others, a
// new stream, a new patient, a Params change, a database read back from
// its binary form and swapped in, and a search that panicked. Where nothing a search
// can see changed, the answers are the kept ones; where something did,
// the first is not.
func TestKeptRetrievalEqualsFreshMatcher(t *testing.T) {
	alwaysFanOut(t)
	var reads, boomAt atomic.Int64
	now = func() time.Time {
		if n := reads.Add(1); boomAt.Load() > 0 && n >= boomAt.Load() {
			panic("stage clock")
		}
		return time.Now()
	}
	t.Cleanup(func() { now = time.Now })

	for _, par := range []int{1, 2} {
		db := forecastCorpus(t, 23, 1)
		p := DefaultParams()
		p.Parallelism = par
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		// The live session: a stream of patient P1's, fed from src.
		src := randomBreathing(rand.New(rand.NewSource(5)), 400)
		live := db.Patient("P1").AddStream("live")
		if err := live.Append(src[:200]...); err != nil {
			t.Fatal(err)
		}
		fed := 200
		var q Query
		cut := func() {
			seq := live.Seq()
			q = NewQuery(seq[len(seq)-10:], "P1", "live")
		}
		cut()
		horizons := [][2]float64{{0, 0.2}, {0.5, 1.5}, {2, 40}}
		ctx := context.Background()

		// fresh is a matcher with nothing kept, for one answer.
		fresh := func() *Matcher {
			f, err := NewMatcher(m.DB, m.Params)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		// check compares m with fresh matchers on FindSimilar and on the
		// prediction at each horizon pair, and returns how many of m's
		// answers were reused.
		check := func(label string) int {
			t.Helper()
			label = fmt.Sprintf("par=%d %s", par, label)
			want, err := fresh().FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := mReused.Value()
			got, err := m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameMatchBits(t, label, want, got)
			for _, h := range horizons {
				wd, wn, wm, werr := fresh().PredictDisplacementCtx(ctx, q, h[0], h[1], 0)
				gd, gn, gm, gerr := m.PredictDisplacementCtx(ctx, q, h[0], h[1], 0)
				if (gerr == nil) != (werr == nil) || gn != wn || !sameFloat(gm, wm) || len(gd) != len(wd) {
					t.Fatalf("%s horizons %v: %v %d %v %v, want %v %d %v %v", label, h, gd, gn, gm, gerr, wd, wn, wm, werr)
				}
				for k := range gd {
					if !sameFloat(gd[k], wd[k]) {
						t.Fatalf("%s horizons %v: disp[%d] = %v, want %v", label, h, k, gd[k], wd[k])
					}
				}
			}
			return int(mReused.Value() - before)
		}
		all := 1 + len(horizons)
		unchanged := func(label string) {
			t.Helper()
			if n := check(label); n != all {
				t.Errorf("par=%d %s: %d of %d answers reused, want all", par, label, n, all)
			}
		}
		changed := func(label string) {
			t.Helper()
			if n := check(label); n != all-1 {
				t.Errorf("par=%d %s: %d of %d answers reused, want all but the first", par, label, n, all)
			}
		}

		changed("first search")
		unchanged("repeated")
		// No stage of the funnel reads Now: a client's own clock is the
		// same search.
		q.Now += 1
		unchanged("now moved")
		// A sample the segmenter closes no vertex on.
		if err := live.Append(); err != nil {
			t.Fatal(err)
		}
		unchanged("append of no vertex")
		// Vertices closing on the live stream move the query too.
		for i := 0; i < 3; i++ {
			if err := live.Append(src[fed]); err != nil {
				t.Fatal(err)
			}
			fed++
			cut()
			changed(fmt.Sprintf("live vertex %d", i))
		}

		// Another patient's stream grows by a copy of the query, and by
		// what follows it, a vertex at a time: a new match with a future.
		other := db.Patient("P4").Streams[0]
		ts, _, _ := other.Track()
		shift := ts[len(ts)-1] + 1 - q.Seq[0].T
		grow := append(q.Seq.Clone(), src[fed:fed+4].Clone()...)
		for i, v := range grow {
			v.T += shift
			if err := other.Append(v); err != nil {
				t.Fatal(err)
			}
			changed(fmt.Sprintf("vertex %d into another stream", i))
		}

		// Searches that neither read nor disturb the kept retrieval.
		want, err := fresh().TopK(q, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.TopK(q, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameMatchBits(t, fmt.Sprintf("par=%d TopK", par), want, got)
		restrict := map[string]bool{"P1": true, "P4": true}
		if want, err = fresh().FindSimilar(q, restrict); err != nil {
			t.Fatal(err)
		}
		if got, err = m.FindSimilar(q, restrict); err != nil {
			t.Fatal(err)
		}
		sameMatchBits(t, fmt.Sprintf("par=%d restricted", par), want, got)
		unchanged("after TopK and a restricted search")

		// A patient with no stream is nothing a search sees; its first
		// stream, even empty, moves the list a search ranks by.
		np, err := db.AddPatient(store.PatientInfo{ID: "P00"})
		if err != nil {
			t.Fatal(err)
		}
		unchanged("new patient")
		db.Patient("P0").AddStream("empty")
		changed("new empty stream ahead of the matched ones")
		if err := np.AddStream("S0").Append(grow...); err != nil {
			t.Fatal(err)
		}
		changed("new patient's stream")

		m.Params.DistThreshold /= 2
		changed("threshold halved")
		m.Params.WeightSamePatient = m.Params.WeightOtherPatient
		changed("stream weight changed")
		m.Params = p
		changed("parameters restored")

		// The database read back from its binary form, swapped in, then
		// appended to.
		var buf bytes.Buffer
		if err := db.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if m.DB, err = store.ReadBinary(&buf); err != nil {
			t.Fatal(err)
		}
		changed("binary-read database")
		unchanged("binary-read database, repeated")
		if err := m.DB.Patient("P6").Streams[0].Append(plr.Vertex{T: 1e6, Pos: []float64{3}, State: plr.EX}); err != nil {
			t.Fatal(err)
		}
		changed("append to the binary-read database")

		// A search that panics mid-funnel keeps nothing.
		func() {
			defer func() {
				boomAt.Store(0)
				if recover() == nil {
					t.Fatalf("par=%d: the stage clock's panic did not reach the caller", par)
				}
			}()
			root := obs.StartTrace("test.search", "test", obs.SpanContext{}, obs.NewCollector(1, time.Hour))
			reads.Store(0)
			boomAt.Store(3)
			far := q
			far.Seq = q.Seq.Clone()
			far.Seq[0].Pos[0] += 1e-9 // another query: the funnel runs
			_, _ = m.FindSimilarCtx(obs.ContextWithSpan(ctx, root), far, nil)
		}()
		if m.kept.ok {
			t.Errorf("par=%d: a panicked search left a retrieval kept", par)
		}
		changed("after a panicked search")
	}
}

// TestThresholdMissAllocsConstant: TestSearchAllocsConstant's bound on a
// threshold search that runs the funnel. Asked one query again and again,
// a matcher answers from its kept retrieval, so here two queries
// alternate and every search is a miss: it allocates for its plan and its
// result only, whatever the corpus, keeping the hits included.
func TestThresholdMissAllocsConstant(t *testing.T) {
	perCorpus := map[int]float64{}
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
			far.Seq[i].Pos[0] *= 40
		}
		queries, i := []Query{q, far}, 0
		// Size the matcher's buffers for the larger result first.
		if _, err := m.FindSimilar(q, nil); err != nil {
			t.Fatal(err)
		}
		before := mReused.Value()
		perCorpus[streams] = testing.AllocsPerRun(20, func() {
			i++
			if _, err := m.FindSimilar(queries[i%2], nil); err != nil {
				t.Fatal(err)
			}
		})
		if n := mReused.Value() - before; n != 0 {
			t.Fatalf("%d streams: %d of the alternating searches were reused", streams, n)
		}
		if perCorpus[streams] > 10 {
			t.Errorf("%d streams: a threshold search that misses allocates %v times, want <= 10", streams, perCorpus[streams])
		}
	}
	if perCorpus[4] != perCorpus[64] {
		t.Errorf("allocations grow with the corpus: 4 streams %v, 64 streams %v", perCorpus[4], perCorpus[64])
	}
}

// BenchmarkPredictRepeated is a prediction as an in-process caller makes
// it — FindSimilarCtx over the stream's dynamic query, then
// PredictDisplacement over the matches — on a corpus_small-sized
// database (12 patients x 180 s). "fresh" alternates the tails of two
// streams, so every retrieval runs the funnel; "repeated" asks for one
// tail over the unchanged database, as a predict between two vertex
// closes does, and is answered from the kept retrieval.
func BenchmarkPredictRepeated(b *testing.B) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 12, 1, 180
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	predict := func(q Query) error {
		matches, err := m.FindSimilarCtx(context.Background(), q, nil)
		if err == nil {
			_, err = m.PredictDisplacement(q, matches, 0.1, 0.3, 0)
		}
		return err
	}
	// The tails of the first two streams that have a prediction.
	var tails []Query
	for _, st := range db.Streams() {
		seq, _ := m.Params.DynamicQuery(st.Seq())
		if q := NewQuery(seq, st.PatientID, st.SessionID); len(tails) < 2 && predict(q) == nil {
			tails = append(tails, q)
		}
	}
	if len(tails) < 2 {
		b.Fatalf("fixture: %d stream tails with a prediction, want 2", len(tails))
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := predict(tails[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repeated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := predict(tails[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
