package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// legacyPredict is the served estimator as three steps: FindSimilarCtx,
// PredictDisplacement over its matches, and the mean of their distances.
// It also counts the matches whose streams reach both horizons.
func legacyPredict(t *testing.T, m *Matcher, q Query, d1, d2 float64, minMatches int) (disp []float64, matches int, meanDist float64, withFuture int, err error) {
	t.Helper()
	ms, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range ms {
		meanDist += mt.Distance
		ts, pos, d := mt.Stream.Track()
		end := mt.Start + mt.N - 1
		a, b := make([]float64, d), make([]float64, d)
		if positionFrom(ts, pos, d, a, ts[end]+d1, end) && positionFrom(ts, pos, d, b, ts[end]+d2, end) {
			withFuture++
		}
	}
	if len(ms) > 0 {
		meanDist /= float64(len(ms))
	}
	disp, err = m.PredictDisplacement(q, ms, d1, d2, minMatches)
	return disp, len(ms), meanDist, withFuture, err
}

// forecastCorpus is a corpus of regular breathing in dims coordinates:
// eight patients, two of them with a second session, so that matches
// come in all three source relations.
func forecastCorpus(t *testing.T, seed int64, dims int) *store.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := store.NewDB()
	for p := 0; p < 8; p++ {
		pat, err := db.AddPatient(store.PatientInfo{ID: fmt.Sprintf("P%d", p)})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 1+p%4/3; s++ {
			seq := randomBreathing(rng, 160+rng.Intn(80))
			for i := range seq {
				y := seq[i].Pos[0]
				pos := []float64{y}
				for k := 1; k < dims; k++ {
					pos = append(pos, float64(k)*0.4*y+rng.Float64())
				}
				seq[i].Pos = pos
			}
			if err := pat.AddStream(fmt.Sprintf("S%d", s)).Append(seq...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestPredictDisplacementCtxBitIdentical: the fused estimator returns,
// to the bit, what FindSimilar + PredictDisplacement + a mean over the
// matches' distances return — at one and two workers (the parallel path
// forced), in one and three dimensions, with horizons some matches'
// streams do not reach, with exactly minMatches and one short of it, and
// with none (ErrNoMatches, the match count still reported).
func TestPredictDisplacementCtxBitIdentical(t *testing.T) {
	alwaysFanOut(t)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	partial, exact := 0, 0
	for _, dims := range []int{1, 3} {
		db := forecastCorpus(t, int64(40+dims), dims)
		for _, par := range []int{1, 2} {
			p := DefaultParams()
			p.Parallelism = par
			m, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			var queries []Query
			for i, st := range db.Streams() {
				seq := st.Seq()
				at := len(seq) - 12 - 7*i%40
				pid, sid := st.PatientID, st.SessionID
				if i%3 == 2 {
					pid, sid = "", ""
				}
				queries = append(queries, NewQuery(seq[at:at+8+i%5], pid, sid))
			}
			// A state order no stream has: no match at all.
			none := queries[0]
			none.Seq = none.Seq.Clone()
			for i := range none.Seq {
				none.Seq[i].State = plr.IRR
			}
			queries = append(queries, none)

			horizons := [][2]float64{{0, 0.2}, {0.35, 0.85}, {1, 4}, {0, 60}, {1e6, 1e6 + 1}}
			for qi, q := range queries {
				for _, h := range horizons {
					check := func(minMatches int) (withFuture int) {
						label := fmt.Sprintf("dims=%d par=%d query %d horizons %v min %d", dims, par, qi, h, minMatches)
						wantDisp, wantN, wantMean, withFuture, wantErr := legacyPredict(t, m, q, h[0], h[1], minMatches)
						disp, n, mean, err := m.PredictDisplacementCtx(context.Background(), q, h[0], h[1], minMatches)
						if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
							t.Fatalf("%s: err %v, want %v", label, err, wantErr)
						}
						if n != wantN || !same(mean, wantMean) {
							t.Fatalf("%s: %d matches mean %v, want %d mean %v", label, n, mean, wantN, wantMean)
						}
						if len(disp) != len(wantDisp) {
							t.Fatalf("%s: disp %v, want %v", label, disp, wantDisp)
						}
						for k := range disp {
							if !same(disp[k], wantDisp[k]) {
								t.Fatalf("%s: disp[%d] = %v, want %v (bits %x vs %x)", label, k, disp[k], wantDisp[k],
									math.Float64bits(disp[k]), math.Float64bits(wantDisp[k]))
							}
						}
						return withFuture
					}
					withFuture := check(0)
					_, n, _, _, _ := legacyPredict(t, m, q, h[0], h[1], 0)
					if withFuture > 0 && withFuture < n {
						partial++
					}
					if withFuture > 0 {
						// Exactly enough, and one short.
						check(withFuture)
						check(withFuture + 1)
						exact++
					}
				}
			}
		}
	}
	if partial == 0 || exact == 0 {
		t.Errorf("fixture: %d cases where some matches lack a future, %d with any future; want both", partial, exact)
	}
}

// TestPredictDisplacementCtxObservable: the fused search is the ordinary
// funnel — the same stsmatch_matcher_* deltas as FindSimilar on the same
// query, counts that partition, and under a trace the matcher.search
// span with its funnel stages. Each search runs on a matcher of its own,
// which has kept no retrieval to answer it from.
func TestPredictDisplacementCtxObservable(t *testing.T) {
	alwaysFanOut(t)
	db := forecastCorpus(t, 9, 1)
	for _, par := range []int{1, 2} {
		p := DefaultParams()
		p.Parallelism = par
		fresh := func() *Matcher {
			m, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		st := db.Streams()[3]
		seq := st.Seq()
		q := NewQuery(seq[len(seq)-30:len(seq)-20], st.PatientID, st.SessionID)
		ms, want := searchCounts(t, func() ([]Match, error) { return fresh().FindSimilar(q, nil) })
		var n int
		var err error
		_, got := searchCounts(t, func() ([]Match, error) {
			_, n, _, err = fresh().PredictDisplacementCtx(context.Background(), q, 0, 0.2, 0)
			return nil, err
		})
		if got != want || !partitions(got) || n != len(ms) || got.Matched != n {
			t.Errorf("par=%d: fused counts %+v (%d matches), FindSimilar %+v (%d)", par, got, n, want, len(ms))
		}

		col := obs.NewCollector(4, time.Hour)
		root := obs.StartTrace("test.predict", "test", obs.SpanContext{}, col)
		if _, _, _, err := fresh().PredictDisplacementCtx(obs.ContextWithSpan(context.Background(), root), q, 0, 0.2, 0); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		names := map[string]bool{}
		for _, td := range col.Recent() {
			for _, sd := range td.Spans {
				names[sd.Name] = true
			}
		}
		for _, name := range []string{"matcher.search", "funnel.state_order", "funnel.lb_prune", "funnel.exact_distance", "funnel.topk_merge"} {
			if !names[name] {
				t.Errorf("par=%d: traced fused search recorded no %s span: %v", par, name, names)
			}
		}
	}
}

// TestPredictDisplacementCtxPanicLeavesMatcherClean: a fused search that
// panics once its workers have recorded hits leaves the
// matcher's workers empty and its next searches — fused or not — what a
// fresh matcher gives, as TestPredictAdaptiveLeavesParams asks of
// Params. The panic comes from the stage clock of a traced search, some
// reads in.
func TestPredictDisplacementCtxPanicLeavesMatcherClean(t *testing.T) {
	alwaysFanOut(t)
	db := forecastCorpus(t, 11, 3)
	st := db.Streams()[1]
	seq := st.Seq()
	q := NewQuery(seq[len(seq)-40:len(seq)-30], st.PatientID, st.SessionID)
	other := NewQuery(seq[len(seq)-50:len(seq)-40], st.PatientID, st.SessionID)
	var reads, boomAt atomic.Int64
	now = func() time.Time {
		if n := reads.Add(1); boomAt.Load() > 0 && n >= boomAt.Load() {
			panic("stage clock")
		}
		return time.Now()
	}
	t.Cleanup(func() { now = time.Now })
	for _, par := range []int{1, 2} {
		p := DefaultParams()
		p.Parallelism = par
		fresh, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		wantDisp, wantN, wantMean, err := fresh.PredictDisplacementCtx(context.Background(), q, 0.1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantMatches, err := fresh.FindSimilar(q, nil)
		if err != nil {
			t.Fatal(err)
		}

		m, err := NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		// A clean fused search first, so that the scratch holds sums; of
		// another query, so that the one that panics runs the funnel.
		if _, _, _, err := m.PredictDisplacementCtx(context.Background(), other, 1, 2, 0); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				boomAt.Store(0)
				if recover() == nil {
					t.Errorf("par=%d: the stage clock's panic did not reach the caller", par)
				}
			}()
			root := obs.StartTrace("test.predict", "test", obs.SpanContext{}, obs.NewCollector(1, time.Hour))
			reads.Store(0)
			boomAt.Store(int64(3 * len(db.Streams())))
			_, _, _, _ = m.PredictDisplacementCtx(obs.ContextWithSpan(context.Background(), root), q, 0.1, 0.5, 0)
		}()
		for i, w := range m.workers {
			if len(w.hits) != 0 || w.counts != (FunnelCounts{}) {
				t.Errorf("par=%d: worker %d keeps %d hits, counts %+v", par, i, len(w.hits), w.counts)
			}
		}

		disp, n, mean, err := m.PredictDisplacementCtx(context.Background(), q, 0.1, 0.5, 0)
		if err != nil || n != wantN || mean != wantMean || len(disp) != len(wantDisp) {
			t.Fatalf("par=%d: after the panic %v %d %v %v, want %v %d %v", par, disp, n, mean, err, wantDisp, wantN, wantMean)
		}
		for k := range disp {
			if disp[k] != wantDisp[k] {
				t.Errorf("par=%d: after the panic disp[%d] = %v, want %v", par, k, disp[k], wantDisp[k])
			}
		}
		got, err := m.FindSimilar(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		matchesIdentical(t, fmt.Sprintf("par=%d FindSimilar after the panic", par), wantMatches, got)
	}
}
