package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// refDisplacement is PredictDisplacement as a plain loop over each match's
// columns, kept apart from the fold kernel: Σ w·(b−a) / Σ w in the
// matches' order over the windows whose streams reach both horizons, each
// product rounded before it is summed, as the kernel's stored terms are.
func refDisplacement(q Query, ms []Match, d1, d2 float64, minMatches int) ([]float64, error) {
	if minMatches <= 0 {
		minMatches = MinMatchesForPrediction
	}
	dims := q.Seq.Dims()
	acc := make([]float64, dims)
	var wsum float64
	used := 0
	for _, mt := range ms {
		ts, pos, d := mt.Stream.Track()
		end := mt.Start + mt.N - 1
		a, b := make([]float64, dims), make([]float64, dims)
		_, ina := positionFrom(ts, pos, d, a, ts[end]+d1, end)
		_, inb := positionFrom(ts, pos, d, b, ts[end]+d2, end)
		if !ina || !inb {
			continue
		}
		for k := range acc {
			acc[k] += float64(mt.Weight * (b[k] - a[k]))
		}
		wsum += mt.Weight
		used++
	}
	if used < minMatches || wsum == 0 {
		return nil, ErrNoMatches
	}
	for k := range acc {
		acc[k] /= wsum
	}
	return acc, nil
}

// legacyPredict is the served estimator as three steps: FindSimilarCtx,
// refDisplacement over its matches, and the mean of their distances.
// It also counts the matches whose streams reach both horizons, and
// holds m's PredictDisplacement over the same matches, folded afresh and
// then again from its kept rows, to the plain loop's bits.
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
		_, ina := positionFrom(ts, pos, d, a, ts[end]+d1, end)
		if _, inb := positionFrom(ts, pos, d, b, ts[end]+d2, end); ina && inb {
			withFuture++
		}
	}
	if len(ms) > 0 {
		meanDist /= float64(len(ms))
	}
	disp, err = refDisplacement(q, ms, d1, d2, minMatches)
	for _, pass := range []string{"fresh", "repeated"} {
		got, gerr := m.PredictDisplacement(q, ms, d1, d2, minMatches)
		if !errors.Is(gerr, err) || len(got) != len(disp) {
			t.Fatalf("%s PredictDisplacement at %v, %v: %v %v, want %v %v", pass, d1, d2, got, gerr, disp, err)
		}
		for k := range got {
			if !sameFloat(got[k], disp[k]) {
				t.Fatalf("%s PredictDisplacement at %v, %v: disp[%d] = %v, want %v", pass, d1, d2, k, got[k], disp[k])
			}
		}
	}
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

// TestFoldMemoEqualsFreshFold: a matcher that keeps each folded window's
// future beside its threshold answer predicts, through both doors
// (FindSimilar then PredictDisplacement, and PredictDisplacementCtx), bit
// for bit what refDisplacement gives over the matches of a matcher built
// afresh for that one prediction — at
// the same horizons twice, at changed horizons and back, after a stream
// grows past a future it did not reach, after a repair inserts hits
// ahead of the kept ones, over a caller's matches with one Weight,
// Start, N or Stream edited, over TopK's matches (and the kept answer
// after them at other horizons), and after a fold in other dimensions —
// at one and two workers, in one and three dimensions — and after a
// stream grows past a horizon that fell on its last vertex.
func TestFoldMemoEqualsFreshFold(t *testing.T) {
	alwaysFanOut(t)
	ctx := context.Background()
	for _, dims := range []int{1, 3} {
		for _, par := range []int{1, 2} {
			db := forecastCorpus(t, int64(60+dims), dims)
			p := DefaultParams()
			p.Parallelism = par
			m, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() *Matcher {
				f, err := NewMatcher(db, p)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			// grow holds the first half of src's vertices; the query is the
			// last of them, so its match at grow's end has no future until
			// the rest lands.
			src := db.Streams()[2].Seq()
			cut := len(src) / 2
			grow := db.Patient("P0").AddStream("grow")
			if err := grow.Append(src[:cut]...); err != nil {
				t.Fatal(err)
			}
			q := NewQuery(src[cut-8:cut], "", "")
			h1, h2 := [2]float64{0.2, 0.9}, [2]float64{0.5, 2.5}

			same := func(label string, gd []float64, gerr error, wd []float64, werr error) {
				t.Helper()
				if (gerr == nil) != (werr == nil) || len(gd) != len(wd) {
					t.Fatalf("dims=%d par=%d %s: %v %v, want %v %v", dims, par, label, gd, gerr, wd, werr)
				}
				for k := range gd {
					if !sameFloat(gd[k], wd[k]) {
						t.Fatalf("dims=%d par=%d %s: disp[%d] = %v, want %v", dims, par, label, k, gd[k], wd[k])
					}
				}
			}
			// over compares m's fold of the caller's matches ms with the
			// plain loop over them.
			over := func(label string, ms []Match, h [2]float64) {
				t.Helper()
				gd, gerr := m.PredictDisplacement(q, ms, h[0], h[1], 0)
				wd, werr := refDisplacement(q, ms, h[0], h[1], 0)
				same(label, gd, gerr, wd, werr)
			}
			// both compares both doors of m at h with the plain loop over a
			// fresh matcher's matches.
			both := func(label string, h [2]float64) {
				t.Helper()
				f := fresh()
				want, err := f.FindSimilar(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.FindSimilar(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameMatchBits(t, label, want, got)
				wd, werr := refDisplacement(q, want, h[0], h[1], 0)
				gd, gerr := m.PredictDisplacement(q, got, h[0], h[1], 0)
				same(label+" PredictDisplacement", gd, gerr, wd, werr)
				gd, _, _, gerr = m.PredictDisplacementCtx(ctx, q, h[0], h[1], 0)
				same(label+" PredictDisplacementCtx", gd, gerr, wd, werr)
			}
			// settled counts the kept rows a fold at h would sum as they are.
			settled := func() (n int) {
				for _, r := range m.answers.fut.rows {
					if r.need > 0 && r.at == m.answers.fut.at {
						n++
					}
				}
				return n
			}

			both("first", h1)
			both("same horizons", h1)
			if settled() == 0 {
				t.Fatalf("dims=%d par=%d: no row settled after a fold", dims, par)
			}
			both("changed horizons", h2)
			both("changed horizons, repeated", h2)
			both("horizons back", h1)

			ms, err := m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			unreached := 0
			for _, mt := range ms {
				if ts, _, _ := mt.Stream.Track(); mt.Stream == grow && ts[mt.Start+mt.N-1]+h1[1] > ts[len(ts)-1] {
					unreached++
				}
			}
			if unreached == 0 {
				t.Fatalf("dims=%d par=%d fixture: no match in grow short of its future", dims, par)
			}
			for at := cut; at < len(src); at += 7 {
				if err := grow.Append(src[at:min(at+7, len(src))]...); err != nil {
					t.Fatal(err)
				}
				both(fmt.Sprintf("grown to %d", min(at+7, len(src))), h1)
			}
			both("grown, repeated", h1)

			// Another patient's stream grows by a copy of the query and what
			// follows it: distance-0 hits, ranked ahead of every kept one.
			other := db.Patient("P4").Streams[0]
			ts, _, _ := other.Track()
			shift := ts[len(ts)-1] + 1 - src[cut-8].T
			for i, v := range src[cut-8 : cut+6] {
				v.T += shift
				if err := other.Append(v); err != nil {
					t.Fatal(err)
				}
				both(fmt.Sprintf("repair ahead, vertex %d", i), h1)
			}
			both("repair ahead, repeated", h1)

			ms, err = m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			over("kept matches", ms, h1)
			edited := slices.Clone(ms)
			edited[len(edited)/2].Weight *= 1.5
			over("one Weight edited", edited, h1)
			edited = slices.Clone(ms)
			for i := range edited {
				if edited[i].Start > 0 {
					edited[i].Start--
					break
				}
			}
			over("one Start edited", edited, h1)
			edited = slices.Clone(ms)
			edited[len(edited)/3].N--
			over("one N edited", edited, h1)
			edited = slices.Clone(ms)
			for i := range edited {
				if ts, _, _ := other.Track(); edited[i].Stream != other && edited[i].Start+edited[i].N+20 < len(ts) {
					edited[i].Stream = other
					break
				}
			}
			over("one Stream edited", edited, h1)
			tk, err := m.TopK(q, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			over("TopK", tk, h1)
			over("TopK, repeated", tk, h1)
			both("after TopK", h1)
			// A short list at new horizons, then the kept answer at them:
			// the rows past the short list are still the old horizons'.
			over("TopK at other horizons", tk, h2)
			both("after TopK at other horizons", h2)

			// A fold in another number of dimensions reaches no future
			// and moves the rows' stride.
			wide := q
			wide.Seq = q.Seq.Clone()
			for i := range wide.Seq {
				wide.Seq[i].Pos = append(wide.Seq[i].Pos, 0)
			}
			if _, err := m.PredictDisplacement(wide, ms, h1[0], h1[1], 0); !errors.Is(err, ErrNoMatches) {
				t.Fatalf("dims=%d par=%d: a fold in %d dimensions: %v, want ErrNoMatches", dims, par, dims+1, err)
			}
			both("after a fold in other dimensions", h1)
			both("after a fold in other dimensions, repeated", h1)
		}
	}

	// A horizon at a stream's last vertex is read again once the stream
	// grows: the next vertex makes it a segment's start, interpolated
	// with a zero fraction, which here overflows to NaN.
	st := store.NewStream("P", "S")
	if err := st.Append(plr.Vertex{T: 0, Pos: []float64{0}}, plr.Vertex{T: 1, Pos: []float64{1e308}}); err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(store.NewDB(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ms := []Match{{Stream: st, N: 1, Weight: 1}}
	q := NewQuery(plr.Sequence{{T: 0, Pos: []float64{0}}}, "", "")
	for _, grown := range []bool{false, true} {
		if grown {
			if err := st.Append(plr.Vertex{T: 2, Pos: []float64{-1e308}}); err != nil {
				t.Fatal(err)
			}
		}
		gd, gerr := m.PredictDisplacement(q, ms, 0.5, 1, 1)
		want, werr := refDisplacement(q, ms, 0.5, 1, 1)
		if gerr != nil || werr != nil || !sameFloat(gd[0], want[0]) {
			t.Fatalf("last vertex, grown %v: %v %v, want %v %v", grown, gd, gerr, want, werr)
		}
	}
}

// TestRepeatedPredictAllocs: a PredictDisplacement over the kept answer's
// matches at the horizons of the fold before allocates its result only.
func TestRepeatedPredictAllocs(t *testing.T) {
	db := forecastCorpus(t, 61, 1)
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	seq := db.Streams()[2].Seq()
	q := NewQuery(seq[len(seq)/2-8:len(seq)/2], "", "")
	ms, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictDisplacement(q, ms, 0.2, 0.9, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.PredictDisplacement(q, ms, 0.2, 0.9, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("a repeated PredictDisplacement over %d matches allocates %v times, want 1 (its result)", len(ms), allocs)
	}
}
