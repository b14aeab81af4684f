package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// randomDB builds a randomized database of regular breathing streams
// with jittered amplitudes and durations, deterministic in the seed.
func randomDB(t *testing.T, rng *rand.Rand) *store.DB {
	t.Helper()
	db := store.NewDB()
	patients := 2 + rng.Intn(4)
	for p := 0; p < patients; p++ {
		info := store.PatientInfo{ID: string(rune('A' + p))}
		pat, err := db.AddPatient(info)
		if err != nil {
			t.Fatal(err)
		}
		sessions := 1 + rng.Intn(3)
		for s := 0; s < sessions; s++ {
			st := pat.AddStream(string(rune('a' + s)))
			segs := 12 + rng.Intn(48)
			durs := make([]float64, segs)
			for i := range durs {
				durs[i] = 0.5 + rng.Float64()
			}
			amp := 8 + 4*rng.Float64()
			if err := st.Append(breathingWindow(0, amp, durs)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// alwaysFanOut lowers the fan-out cutoff for the test's duration, so
// that a small fixture runs on worker goroutines whenever its
// Parallelism allows.
func alwaysFanOut(t testing.TB) {
	old := fanOutMinVertices
	fanOutMinVertices = 0
	t.Cleanup(func() { fanOutMinVertices = old })
}

// matchesIdentical asserts two result lists are element-wise identical
// in every exported field, including bit-exact distances.
func matchesIdentical(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Stream != g.Stream || w.Start != g.Start || w.N != g.N ||
			w.Relation != g.Relation || w.Distance != g.Distance || w.Weight != g.Weight {
			t.Fatalf("%s: match %d differs: %+v vs %+v", label, i, w, g)
		}
	}
}

// TestParallelSequentialEquivalence is the correctness contract of the
// stream-parallel search: at every parallelism setting, FindSimilar,
// TopK and FindSimilarTopK return byte-identical results. Run under
// -race this also exercises the collector's synchronization.
func TestParallelSequentialEquivalence(t *testing.T) {
	alwaysFanOut(t)
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := randomDB(t, rng)
		if trial%2 == 0 {
			db.EnableIndexes()
		}
		streams := db.Streams()
		src := streams[rng.Intn(len(streams))]
		seq := src.Seq()
		n := 8 + rng.Intn(6)
		q := NewQuery(seq[len(seq)-n:], src.PatientID, src.SessionID)

		p := DefaultParams()
		p.DistThreshold = 2 + 6*rng.Float64()
		p.Parallelism = 1
		seqM, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		wantSim, err := seqM.FindSimilar(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, err := seqM.TopK(q, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBoth, err := seqM.FindSimilarTopK(q, 5, nil)
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{2, 3, 8} {
			p.Parallelism = par
			m, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			gotSim, err := m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			matchesIdentical(t, "FindSimilar", wantSim, gotSim)
			gotTop, err := m.TopK(q, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			matchesIdentical(t, "TopK", wantTop, gotTop)
			gotBoth, err := m.FindSimilarTopK(q, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			matchesIdentical(t, "FindSimilarTopK", wantBoth, gotBoth)
		}
	}
}

// TestFindSimilarTopKSemantics: the combined mode returns exactly the
// k best entries of the full threshold search.
func TestFindSimilarTopKSemantics(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")

	all, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("test needs >= 4 threshold matches, got %d", len(all))
	}
	k := 3
	got, err := m.FindSimilarTopK(q, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	matchesIdentical(t, "FindSimilarTopK vs FindSimilar prefix", all[:k], got)
	if _, err := m.FindSimilarTopK(q, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestDeterministicTieBreak duplicates identical stream content under
// several patients and sessions, producing exact distance ties, and
// asserts the result order is the documented total order — identical
// between sequential and parallel runs.
func TestDeterministicTieBreak(t *testing.T) {
	alwaysFanOut(t)
	db := store.NewDB()
	durs := unitDurs(30)
	content := breathingWindow(0, 10, durs)
	for _, id := range []string{"P1", "P2", "P3"} {
		pat, err := db.AddPatient(store.PatientInfo{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		for _, sid := range []string{"S1", "S2"} {
			st := pat.AddStream(sid)
			if err := st.Append(content.Clone()...); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq := db.Patient("P1").StreamBySession("S1").Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")

	run := func(par int) []Match {
		p := DefaultParams()
		p.Parallelism = par
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.FindSimilar(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("no matches on duplicated identical streams")
	}
	// The order must follow the documented total order.
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if b.Distance < a.Distance {
			t.Fatalf("not sorted by distance at %d", i)
		}
		if a.Distance == b.Distance {
			ka := []string{a.Stream.PatientID, a.Stream.SessionID}
			kb := []string{b.Stream.PatientID, b.Stream.SessionID}
			if ka[0] > kb[0] ||
				(ka[0] == kb[0] && ka[1] > kb[1]) ||
				(ka[0] == kb[0] && ka[1] == kb[1] && a.Start > b.Start) {
				t.Fatalf("tie at %d not broken by (patient, session, start): %v/%v#%d vs %v/%v#%d",
					i, ka[0], ka[1], a.Start, kb[0], kb[1], b.Start)
			}
		}
	}
	for _, par := range []int{2, 4, 8} {
		matchesIdentical(t, "tie-break parallel", want, run(par))
	}
}

// dimMismatchDB builds a database whose first stream has 2-dim
// positions matching a 2-dim query and whose second has 1-dim
// positions: nothing in the second is comparable with the query.
func dimMismatchDB(t *testing.T) (*store.DB, Query) {
	t.Helper()
	db := store.NewDB()
	widen := func(s plr.Sequence) plr.Sequence {
		out := s.Clone()
		for i := range out {
			out[i].Pos = append(out[i].Pos, 0)
		}
		return out
	}
	p1, _ := db.AddPatient(store.PatientInfo{ID: "P1"})
	st1 := p1.AddStream("S1")
	if err := st1.Append(widen(breathingWindow(0, 10, unitDurs(30)))...); err != nil {
		t.Fatal(err)
	}
	p2, _ := db.AddPatient(store.PatientInfo{ID: "P2"})
	st2 := p2.AddStream("S1")
	if err := st2.Append(breathingWindow(0, 10, unitDurs(30))...); err != nil {
		t.Fatal(err)
	}
	seq := st1.Seq()
	return db, NewQuery(seq[len(seq)-10:], "P1", "S1")
}

// TestTopKPanicDoesNotCorruptParams is the regression test for the old
// TopK implementation, which overwrote m.Params.DistThreshold and
// restored it without defer: a panic mid-search left the matcher with
// an effectively infinite threshold. The rewritten search never
// mutates Params, so the threshold must survive a panicking search at
// every parallelism setting — and parallel workers must re-raise the
// panic on the caller's goroutine rather than crash the process. The
// panic comes from the stage clock of a traced search. The corpus holds
// a stream of another dimensionality than the query's, which a search
// passes over: it used to be an index out of range in the kernel.
func TestTopKPanicDoesNotCorruptParams(t *testing.T) {
	alwaysFanOut(t)
	db, q := dimMismatchDB(t)
	var boom atomic.Bool
	now = func() time.Time {
		if boom.Load() {
			panic("stage clock")
		}
		return time.Now()
	}
	t.Cleanup(func() { now = time.Now })
	for _, par := range []int{1, 8} {
		p := DefaultParams()
		p.DistThreshold = 4.25
		p.Parallelism = par
		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				boom.Store(false)
				if recover() == nil {
					t.Errorf("par=%d: the stage clock's panic did not reach the caller", par)
				}
			}()
			root := obs.StartTrace("test.query", "test", obs.SpanContext{}, obs.NewCollector(1, time.Hour))
			boom.Store(true)
			_, _ = m.TopKCtx(obs.ContextWithSpan(context.Background(), root), q, 3, nil)
		}()
		if m.Params.DistThreshold != 4.25 {
			t.Errorf("par=%d: panic corrupted DistThreshold: %v", par, m.Params.DistThreshold)
		}
		// The matcher must remain usable, and pass over the 1-dim stream.
		got, err := m.TopK(q, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Errorf("par=%d: matcher unusable after recovered panic", par)
		}
		for _, mt := range got {
			if mt.Stream.PatientID != "P1" {
				t.Errorf("par=%d: a 2-dim query matched in the 1-dim stream of %s", par, mt.Stream.PatientID)
			}
		}
	}
}
