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

// TestRepairedTopKEqualsFreshMatcher: a matcher that keeps its top-k
// answers and repairs them answers every top-k search, bit for bit, as a
// matcher built afresh for that one answer does — across a moved Now,
// appends to the query's own stream, to another stream and to a new
// stream, a new patient, a change of k or of the parameters, a database
// swapped in, an append racing the repairs and a repair that panicked. A repaired
// answer's funnel counts partition, count as many windows as a fresh
// search's, and its Matched is its length. Where the stream list is the
// one the answer ranked, the answer is repaired; where it is not, or
// the key differs, the funnel runs over everything.
func TestRepairedTopKEqualsFreshMatcher(t *testing.T) {
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
		db := forecastCorpus(t, 29, 1)
		p := DefaultParams()
		p.Parallelism = par
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		src := randomBreathing(rand.New(rand.NewSource(7)), 400)
		live := db.Patient("P1").AddStream("live")
		if err := live.Append(src[:200]...); err != nil {
			t.Fatal(err)
		}
		fed := 200
		seq := live.Seq()
		q := NewQuery(seq[len(seq)-10:], "P1", "live")
		k := 10

		// check compares m's answer with a fresh matcher's and reports
		// whether m's was repaired.
		check := func(label string) bool {
			t.Helper()
			label = fmt.Sprintf("par=%d k=%d %s", par, k, label)
			fresh, err := NewMatcher(m.DB, m.Params)
			if err != nil {
				t.Fatal(err)
			}
			want, wc := searchCounts(t, func() ([]Match, error) { return fresh.TopK(q, k, nil) })
			before := mRepaired.Value()
			got, gc := searchCounts(t, func() ([]Match, error) { return m.TopK(q, k, nil) })
			sameMatchBits(t, label, want, got)
			if !partitions(gc) || gc.Matched != len(got) {
				t.Fatalf("%s: counts %+v do not partition %d matches", label, gc, len(got))
			}
			if gc.Windows != wc.Windows || gc.StateRejected != wc.StateRejected || gc.SelfExcluded != wc.SelfExcluded {
				t.Fatalf("%s: counts %+v, a fresh search's %+v", label, gc, wc)
			}
			return mRepaired.Value() != before
		}
		repaired := func(label string) {
			t.Helper()
			if !check(label) {
				t.Errorf("par=%d %s: not repaired", par, label)
			}
		}
		full := func(label string) {
			t.Helper()
			if check(label) {
				t.Errorf("par=%d %s: repaired, want a full search", par, label)
			}
		}

		full("first search")
		repaired("repeated")
		// No stage of the funnel reads Now: a client's own clock is the
		// same search.
		q.Now += 1
		repaired("now moved")
		// The query's own stream grows past the query.
		for i := 0; i < 3; i++ {
			if err := live.Append(src[fed]); err != nil {
				t.Fatal(err)
			}
			fed++
			repaired(fmt.Sprintf("own stream vertex %d", i))
		}
		// Another stream grows by a copy of the query: a new best match.
		other := db.Patient("P4").Streams[0]
		ts, _, _ := other.Track()
		shift := ts[len(ts)-1] + 1 - q.Seq[0].T
		grow := q.Seq.Clone()
		for i := range grow {
			grow[i].T += shift
			if err := other.Append(grow[i]); err != nil {
				t.Fatal(err)
			}
			repaired(fmt.Sprintf("vertex %d into another stream", i))
		}
		if got, _ := m.TopK(q, 1, nil); got[0].Stream != other || got[0].Distance != 0 {
			t.Fatalf("par=%d: the copy of the query is not the best match: %+v", par, got[0])
		}

		// Neither a threshold nor a restricted search reads or writes the
		// answers.
		before := mRepaired.Value()
		if _, err := m.TopK(q, k, map[string]bool{"P1": true, "P4": true}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.TopK(q, k, map[string]bool{"P1": true, "P4": true}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.FindSimilar(q, nil); err != nil {
			t.Fatal(err)
		}
		if n := mRepaired.Value() - before; n != 0 {
			t.Errorf("par=%d: %d restricted or threshold searches repaired", par, n)
		}
		repaired("after restricted and threshold searches")

		// A patient with no stream changes no list; its first stream does.
		np, err := db.AddPatient(store.PatientInfo{ID: "P00"})
		if err != nil {
			t.Fatal(err)
		}
		repaired("new patient")
		if err := np.AddStream("S0").Append(grow...); err != nil {
			t.Fatal(err)
		}
		full("new patient's stream")
		repaired("new patient's stream, repeated")
		db.Patient("P0").AddStream("empty")
		full("new empty stream ahead of the matched ones")

		k = 3
		full("k changed")
		k = 10
		repaired("k restored")
		m.Params.WeightSamePatient = m.Params.WeightOtherPatient
		full("stream weight changed")
		m.Params = p
		repaired("parameters restored")

		var buf bytes.Buffer
		if err := db.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if m.DB, err = store.ReadBinary(&buf); err != nil {
			t.Fatal(err)
		}
		full("binary-read database")
		if err := m.DB.Patient("P6").Streams[0].Append(plr.Vertex{T: 1e6, Pos: []float64{3}, State: plr.EX}); err != nil {
			t.Fatal(err)
		}
		repaired("append to the binary-read database")

		// Appends racing the repairs: each repair partitions its counts,
		// and the first after the writer is done is exact.
		racing := m.DB.Patient("P3").Streams[0]
		more := randomBreathing(rand.New(rand.NewSource(11)), 300)
		for i := range more {
			more[i].T += 1e7
		}
		appended := make(chan struct{})
		go func() {
			defer close(appended)
			for _, v := range more {
				if err := racing.Append(v); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for searching := true; searching; {
			select {
			case <-appended:
				searching = false
			default:
			}
			got, c := searchCounts(t, func() ([]Match, error) { return m.TopK(q, k, nil) })
			if !partitions(c) || c.Matched != len(got) {
				t.Fatalf("par=%d racing repair: counts %+v for %d matches", par, c, len(got))
			}
		}
		repaired("after appends racing the repairs")

		// A repair that panics mid-funnel leaves no answer to repair.
		func() {
			defer func() {
				boomAt.Store(0)
				if recover() == nil {
					t.Fatalf("par=%d: the stage clock's panic did not reach the caller", par)
				}
			}()
			if err := racing.Append(plr.Vertex{T: 2e7, Pos: []float64{1}, State: plr.EX}); err != nil {
				t.Fatal(err)
			}
			root := obs.StartTrace("test.search", "test", obs.SpanContext{}, obs.NewCollector(1, time.Hour))
			reads.Store(0)
			boomAt.Store(2)
			_, _ = m.TopKCtx(obs.ContextWithSpan(context.Background(), root), q, k, nil)
		}()
		full("after a panicked repair")
		repaired("after a panicked repair, repeated")
	}
}

// TestTopKAnswersLRU: a matcher keeps answerCap top-k answers. Asked
// round after round over a cycle of answerCap queries it repairs every
// one after the first round; over a cycle one longer, least recently
// used, it repairs none.
func TestTopKAnswersLRU(t *testing.T) {
	db := scanCorpus(t, 3, 4, 200)
	q := regularQuery(t, db.Streams()[0], 8)
	for _, cycle := range []int{answerCap, answerCap + 1} {
		m := mustMatcher(t, db, DefaultParams())
		qs := ownSessions(q, cycle)
		before := mRepaired.Value()
		for round := 0; round < 3; round++ {
			for _, qi := range qs {
				if _, err := m.TopK(qi, 5, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := 0
		if cycle <= answerCap {
			want = 2 * cycle
		}
		if n := int(mRepaired.Value() - before); n != want {
			t.Errorf("a cycle of %d queries: %d repairs, want %d", cycle, n, want)
		}
	}
}

// TestTopKMissAllocsConstant: TestSearchAllocsConstant's bound on a
// top-k search that runs the funnel over everything. Every query is a
// new one, so none is repaired; with the matcher's answer slots all
// taken, a search allocates for its collector and result only, the same
// at 4 streams as at 64: the heap is sized to k once, not grown.
func TestTopKMissAllocsConstant(t *testing.T) {
	perCorpus := map[int]float64{}
	for _, streams := range []int{4, 64} {
		db := scanCorpus(t, 1, streams, 400)
		p := DefaultParams()
		p.Parallelism = 1
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		qs := ownSessions(regularQuery(t, db.Streams()[0], 10), 2*answerCap)
		i := 0
		search := func() {
			qi := qs[i]
			i++
			if got, err := m.TopK(qi, 10, nil); err != nil || len(got) != 10 {
				t.Fatalf("TopK: %d matches, err %v", len(got), err)
			}
		}
		// Take every answer slot, with its buffers sized.
		for range answerCap {
			search()
		}
		before := mRepaired.Value()
		perCorpus[streams] = testing.AllocsPerRun(20, search)
		if n := mRepaired.Value() - before; n != 0 {
			t.Fatalf("%d streams: %d of the distinct searches were repaired", streams, n)
		}
		if perCorpus[streams] > 10 {
			t.Errorf("%d streams: a top-k search that misses allocates %v times, want <= 10", streams, perCorpus[streams])
		}
	}
	if perCorpus[4] != perCorpus[64] {
		t.Errorf("allocations grow with the corpus: 4 streams %v, 64 streams %v", perCorpus[4], perCorpus[64])
	}
}

// BenchmarkTopKRepeated is a top-10 query on a corpus_small-sized
// database (12 patients x 180 s) with a live stream that grows a vertex
// every eighth query. "fresh" cycles through more copies of one query
// (ownSessions) than a matcher keeps answers, so every search runs the
// funnel over everything; "repaired" asks one copy again and again, and
// is repaired from its kept answer.
func BenchmarkTopKRepeated(b *testing.B) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 12, 1, 180
	grow := randomBreathing(rand.New(rand.NewSource(1)), 1<<12)
	for _, mode := range []string{"fresh", "repaired"} {
		b.Run(mode, func(b *testing.B) {
			db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			st := db.Streams()[0]
			seq := st.Seq()
			qs := ownSessions(NewQuery(seq[len(seq)/2:len(seq)/2+10], st.PatientID, st.SessionID), 2*answerCap)
			live := db.Patients()[1].AddStream("live")
			m, err := NewMatcher(db, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			before := mRepaired.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%8 == 0 {
					v := grow[i/8%len(grow)]
					v.T += float64(i/8/len(grow)) * 1e6
					if err := live.Append(v); err != nil {
						b.Fatal(err)
					}
				}
				qi := qs[0]
				if mode == "fresh" {
					qi = qs[i%len(qs)]
				}
				if _, err := m.TopK(qi, 10, nil); err != nil {
					b.Fatal(err)
				}
			}
			if n := mRepaired.Value() - before; mode == "fresh" && n != 0 {
				b.Fatalf("%d of the fresh searches were repairs", n)
			}
		})
	}
}

// ownSessions returns n copies of q, each asked from a session of its
// own that no stream holds. A matcher keys its kept answers by the query
// (Now aside: no stage of the funnel reads it), so each copy is a search
// of its own; every stream stands in the same relation to all of them,
// so they do the same work and have one answer.
func ownSessions(q Query, n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = q
		out[i].SessionID += fmt.Sprintf("~%d", i)
	}
	return out
}
