package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
		if m.answers.last.used != 0 {
			t.Errorf("par=%d: a panicked search left a retrieval kept", par)
		}
		changed("after a panicked search")
	}
}

// TestKeptListIsShared: a threshold search asked again returns the list
// it returned before, the same array with len == cap, allocating nothing
// (and a prediction over it its result only); and no list a matcher has
// handed out changes afterwards, through a repair that adds hits, a
// PredictDisplacementCtx that rewrites the hits, a search for another
// query and a TopK. Every list equals a fresh matcher's, at one and two
// workers.
func TestKeptListIsShared(t *testing.T) {
	alwaysFanOut(t)
	ctx := context.Background()
	seed := maphash.MakeSeed()
	// sum digests a list's values, the bits of every field.
	sum := func(ms []Match) uint64 {
		var h maphash.Hash
		h.SetSeed(seed)
		for _, mt := range ms {
			fmt.Fprintf(&h, "%p %d %d %d %d %x %x;", mt.Stream, mt.Start, mt.N, mt.Relation, mt.ord,
				math.Float64bits(mt.Distance), math.Float64bits(mt.Weight))
		}
		return h.Sum64()
	}
	for _, par := range []int{1, 2} {
		db := forecastCorpus(t, 71, 1)
		p := DefaultParams()
		p.Parallelism = par
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		seq := db.Streams()[2].Seq()
		q := NewQuery(seq[len(seq)/2-8:len(seq)/2], "", "")
		other := NewQuery(seq[len(seq)/3-8:len(seq)/3], "", "")

		// handed are the lists m returned, each with its digest then.
		type list struct {
			label string
			ms    []Match
			sum   uint64
		}
		var handed []list
		// find asks m for a threshold search of q, holds the list to a
		// fresh matcher's and keeps it with its digest.
		find := func(label string, q Query) []Match {
			t.Helper()
			label = fmt.Sprintf("par=%d %s", par, label)
			f, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameMatchBits(t, label, want, got)
			if len(got) != cap(got) {
				t.Fatalf("%s: len %d, cap %d", label, len(got), cap(got))
			}
			handed = append(handed, list{label, got, sum(got)})
			return got
		}
		// intact checks that no handed-out list changed.
		intact := func(after string) {
			t.Helper()
			for _, l := range handed {
				if sum(l.ms) != l.sum {
					t.Fatalf("par=%d: the list of %q changed after %s", par, l.label, after)
				}
			}
		}
		same := func(a, b []Match) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

		first := find("first", q)
		if len(first) < 10 {
			t.Fatalf("par=%d fixture: %d matches", par, len(first))
		}
		before := mReused.Value()
		if again := find("again", q); !same(again, first) {
			t.Fatalf("par=%d: a reused search returned a new list", par)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := m.FindSimilar(q, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("par=%d: a reused FindSimilar allocates %v times, want 0", par, n)
		}
		if _, err := m.PredictDisplacement(q, first, 0.2, 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			ms, err := m.FindSimilar(q, nil)
			if err == nil {
				_, err = m.PredictDisplacement(q, ms, 0.2, 0.9, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("par=%d: a repeated FindSimilar and PredictDisplacement allocate %v times, want 1 (the result)", par, n)
		}
		if n := mReused.Value() - before; n < 41 {
			t.Fatalf("par=%d: %d searches reused, want at least 41", par, n)
		}

		// Another patient's stream grows by a copy of q: distance-0 hits,
		// ranked ahead of every kept one.
		st := db.Patient("P4").Streams[0]
		ts, _, _ := st.Track()
		shift := ts[len(ts)-1] + 1 - q.Seq[0].T
		appendCopy := func() {
			t.Helper()
			for _, v := range q.Seq {
				v.T += shift
				if err := st.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			shift += q.Seq.Duration() + 1
		}
		appendCopy()
		if grown := find("repair that adds hits", q); same(grown, first) || len(grown) <= len(first) {
			t.Fatalf("par=%d: a repair that adds hits returned the kept list (%d matches, %d before)", par, len(grown), len(first))
		}
		intact("a repair that adds hits")
		repaired := find("repaired, again", q)
		intact("a reuse of a repaired list")

		appendCopy()
		if _, _, _, err := m.PredictDisplacementCtx(ctx, q, 0.2, 0.9, 0); err != nil {
			t.Fatal(err)
		}
		intact("a PredictDisplacementCtx that repairs")
		if again := find("after PredictDisplacementCtx", q); same(again, repaired) {
			t.Fatalf("par=%d: the list outlived the hits a PredictDisplacementCtx added", par)
		}
		find("another query", other)
		intact("a search for another query")
		if _, _, _, err := m.PredictDisplacementCtx(ctx, q, 0.2, 0.9, 0); err != nil {
			t.Fatal(err)
		}
		intact("a fresh PredictDisplacementCtx")
		back := find("back from another query", q)
		tk, err := m.TopK(q, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		tk2, err := m.TopK(q, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if same(tk, tk2) {
			t.Errorf("par=%d: a repeated TopK returned the list it returned before", par)
		}
		intact("a TopK")
		if again := find("after TopK", q); !same(again, back) {
			t.Errorf("par=%d: a TopK dropped the threshold answer's list", par)
		}
		intact("the last search")
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
// database (12 patients x 180 s) and a corpus_large-sized one (200
// patients x 600 s, thousands of matches a prediction). "fresh"
// alternates the tails of two streams, so every retrieval runs the
// funnel; "repeated" asks for one tail over the unchanged database, as a
// predict between two vertex closes does, and is answered from the kept
// answer with no window to range over and every hit's future as the last
// fold left it; "horizon_moved" asks for that tail at horizons that
// alternate between two pairs, so the answer is kept but every future is
// read again; "appended" asks for the same tail after a vertex lands in
// another patient's stream (untimed), and is repaired over that vertex's
// window. The vertex is irregular breathing, a state the tail does not
// end in, so the windows of the tail's state order, and the answer, stay
// as they were however long the row runs. "appended_open" appends such a
// vertex to a stream holding an open window of the kept answer (a
// window whose stream does not reach both horizons), short of that
// window's horizon, so every fold misses the kept result and reads its
// rows again.
func BenchmarkPredictRepeated(b *testing.B) {
	for _, size := range []struct {
		patients int
		dur      float64
	}{{12, 180}, {200, 600}} {
		b.Run(fmt.Sprintf("%dx%.0fs", size.patients, size.dur), func(b *testing.B) {
			benchPredictRepeated(b, size.patients, size.dur)
		})
	}
}

func benchPredictRepeated(b *testing.B, patients int, dur float64) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = patients, 1, dur
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	predictAt := func(q Query, d1, d2 float64) error {
		matches, err := m.FindSimilarCtx(context.Background(), q, nil)
		if err == nil {
			_, err = m.PredictDisplacement(q, matches, d1, d2, 0)
		}
		return err
	}
	predict := func(q Query) error { return predictAt(q, 0.1, 0.3) }
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
	b.Run("horizon_moved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d1 := 0.1 + 0.05*float64(i%2)
			if err := predictAt(tails[0], d1, d1+0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
	var other *store.Stream
	for _, st := range db.Streams() {
		if st.PatientID != tails[0].PatientID {
			other = st
			break
		}
	}
	ts, pos, dims := other.Track()
	if tails[0].Seq[len(tails[0].Seq)-1].State == plr.IRR {
		b.Fatal("fixture: the tail ends in an irregular vertex")
	}
	v := plr.Vertex{T: ts[len(ts)-1], Pos: pos[len(pos)-dims:], State: plr.IRR}
	b.Run("appended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			v.T++
			if err := other.Append(v); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := predict(tails[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// open is the kept answer's open window that reaches its far horizon
	// last, in another patient's stream; the vertices land short of it.
	if err := predict(tails[0]); err != nil {
		b.Fatal(err)
	}
	var open *store.Stream
	far := math.Inf(-1)
	for _, mt := range m.answers.list {
		ts, _, _ := mt.Stream.Track()
		if h := ts[mt.Start+mt.N-1] + 0.3; mt.Stream.PatientID != tails[0].PatientID && h > ts[len(ts)-1] && h > far {
			open, far = mt.Stream, h
		}
	}
	if open == nil {
		b.Fatal("fixture: no open window in another patient's stream")
	}
	b.Run("appended_open", func(b *testing.B) {
		ts, pos, dims := open.Track()
		v := plr.Vertex{T: ts[len(ts)-1], Pos: pos[len(pos)-dims:], State: plr.IRR}
		step := (far - v.T) / float64(2*b.N+2)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			v.T += step
			if err := open.Append(v); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := predict(tails[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
