package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

func TestPredictExactAtZeroDelta(t *testing.T) {
	// With last-vertex anchoring, the prediction at delta = 0 must be
	// the query's current position, independent of match quality.
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictPosition(q, matches, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Seq[len(q.Seq)-1].Pos[0]
	if math.Abs(pred.Pos[0]-want) > 1e-9 {
		t.Errorf("prediction at delta=0 is %v, want current position %v", pred.Pos[0], want)
	}
}

func TestPredictAccurateOnPeriodicMotion(t *testing.T) {
	// On perfectly periodic streams, a short-horizon prediction must
	// land close to the true future.
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	qseq := seq[len(seq)-12 : len(seq)-1] // leave one vertex of future
	q := NewQuery(qseq, "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{0.1, 0.3, 0.5} {
		pred, err := m.PredictPosition(q, matches, delta, 1)
		if err != nil {
			t.Fatalf("delta %v: %v", delta, err)
		}
		truth, inside := seq.PositionAt(q.Now + delta)
		if !inside {
			t.Fatalf("delta %v: truth not inside stream", delta)
		}
		if e := math.Abs(pred.Pos[0] - truth[0]); e > 1.5 {
			t.Errorf("delta %v: error %.3f too large (pred %v truth %v)", delta, e, pred.Pos[0], truth[0])
		}
	}
}

func TestPredictFirstVertexAnchor(t *testing.T) {
	// The paper-faithful first-vertex anchor must also work and
	// produce finite predictions.
	db := buildTestDB(t)
	p := DefaultParams()
	p.AnchorAtQueryEnd = false
	m, _ := NewMatcher(db, p)
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictPosition(q, matches, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred.Pos[0]) || math.IsInf(pred.Pos[0], 0) {
		t.Errorf("non-finite prediction %v", pred.Pos[0])
	}
}

func TestPredictRequiresMinMatches(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	matches, _ := m.FindSimilar(q, nil)
	if len(matches) < 2 {
		t.Skip("not enough matches to exercise the floor")
	}
	if _, err := m.PredictPosition(q, matches[:1], 0.1, 2); !errors.Is(err, ErrNoMatches) {
		t.Errorf("want ErrNoMatches with 1 < 2 matches, got %v", err)
	}
	if _, err := m.PredictPosition(q, nil, 0.1, 0); !errors.Is(err, ErrNoMatches) {
		t.Errorf("want ErrNoMatches with no matches, got %v", err)
	}
}

func TestPredictSkipsMatchesWithoutFuture(t *testing.T) {
	// A match ending at the very end of its stream has no future to
	// contribute; prediction must skip it rather than clamp.
	db := store.NewDB()
	p1, _ := db.AddPatient(store.PatientInfo{ID: "P1"})
	st := p1.AddStream("S1")
	if err := st.Append(breathingWindow(0, 10, unitDurs(12))...); err != nil {
		t.Fatal(err)
	}
	// Query = final window; the only same-state candidates end near
	// the stream end and everything else is excluded by online
	// semantics -> no usable futures far out.
	m, _ := NewMatcher(db, DefaultParams())
	seq := st.Seq()
	q := NewQuery(seq[len(seq)-4:], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon beyond the stream end for every candidate.
	horizon := seq.Duration() + 10
	if _, err := m.PredictPosition(q, matches, horizon, 1); !errors.Is(err, ErrNoMatches) {
		t.Errorf("want ErrNoMatches for futureless horizon, got %v", err)
	}
}

func TestPredictEndToEnd(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	qseq, _ := m.Params.DynamicQuery(seq[:len(seq)-2])
	q := NewQuery(qseq, "P1", "S1")
	pred, err := m.Predict(q, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pred.NumMatches < MinMatchesForPrediction {
		t.Errorf("NumMatches = %d below floor", pred.NumMatches)
	}
	if pred.Delta != 0.2 {
		t.Errorf("Delta = %v", pred.Delta)
	}
	if pred.MeanDist < 0 {
		t.Errorf("MeanDist = %v", pred.MeanDist)
	}
}

func TestPredictNextSegment(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	// Query ends exactly at a vertex boundary; the following segment
	// in every periodic stream has duration 1 and a known state.
	qseq := seq[len(seq)-11 : len(seq)-2]
	q := NewQuery(qseq, "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.PredictNextSegment(q, matches, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The next state after the query's final segment follows the FSA.
	wantState := qseq[len(qseq)-2].State.NextRegular()
	if fc.State != wantState {
		t.Errorf("forecast state = %v, want %v", fc.State, wantState)
	}
	if math.Abs(fc.Duration-1) > 0.05 {
		t.Errorf("forecast duration = %v, want ~1", fc.Duration)
	}
	if fc.NumMatches == 0 {
		t.Error("no matches contributed")
	}
	// Amplitude forecast must be plausible for a 10-11 mm cohort when
	// the forecast segment is a moving one; EOE forecasts are near 0.
	if fc.State != plr.EOE && (fc.Amplitude < 8 || fc.Amplitude > 13) {
		t.Errorf("forecast amplitude = %v", fc.Amplitude)
	}
	if _, err := m.PredictNextSegment(q, nil, 1); !errors.Is(err, ErrNoMatches) {
		t.Errorf("want ErrNoMatches, got %v", err)
	}
}

// TestPredictTrajectory: one retrieval predicts a trajectory, the
// position at each of several horizons — the shape a beam-tracking
// controller consumes — and a horizon past the end of every matched
// stream has no prediction rather than a wrong one.
func TestPredictTrajectory(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-12:len(seq)-2], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := q.Seq[len(q.Seq)-1].Pos[0]
	for _, d := range []float64{0, 0.2, 0.4} {
		p, err := m.PredictPosition(q, matches, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Delta != d || p.NumMatches == 0 {
			t.Errorf("horizon %v: prediction %+v", d, p)
		}
		if d == 0 && math.Abs(p.Pos[0]-last) > 1e-9 {
			t.Errorf("horizon 0: %v, want the query's last position %v", p.Pos[0], last)
		}
	}
	if _, err := m.PredictPosition(q, matches, 1e6, 1); !errors.Is(err, ErrNoMatches) {
		t.Errorf("a horizon past every stream's end: want ErrNoMatches, got %v", err)
	}
}

func TestPredictDisplacement(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-12:len(seq)-2], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Displacement between two horizons must equal the difference of
	// the two point predictions (they share anchor and weights).
	p1, err := m.PredictPosition(q, matches, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.PredictPosition(q, matches, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := m.PredictDisplacement(q, matches, 0.1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := p2.Pos[0] - p1.Pos[0]
	if math.Abs(disp[0]-want) > 1e-9 {
		t.Errorf("displacement = %v, want %v", disp[0], want)
	}
	// Zero-width interval -> zero displacement.
	zero, err := m.PredictDisplacement(q, matches, 0.2, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zero[0]) > 1e-12 {
		t.Errorf("zero-interval displacement = %v", zero[0])
	}
	if _, err := m.PredictDisplacement(q, nil, 0, 0.1, 1); !errors.Is(err, ErrNoMatches) {
		t.Errorf("want ErrNoMatches, got %v", err)
	}
	if _, err := m.PredictDisplacement(Query{}, matches, 0, 0.1, 1); !errors.Is(err, ErrTooShort) {
		t.Errorf("want ErrTooShort, got %v", err)
	}
}

func TestPredictionMultiDim(t *testing.T) {
	// 2-D streams: prediction must cover every dimension.
	db := store.NewDB()
	mk2d := func(amp float64) plr.Sequence {
		s := breathingWindow(0, amp, unitDurs(24))
		for i := range s {
			s[i].Pos = []float64{s[i].Pos[0], s[i].Pos[0] * 0.3}
		}
		return s
	}
	p1, _ := db.AddPatient(store.PatientInfo{ID: "P1"})
	if err := p1.AddStream("S1").Append(mk2d(10)...); err != nil {
		t.Fatal(err)
	}
	p2, _ := db.AddPatient(store.PatientInfo{ID: "P2"})
	if err := p2.AddStream("S1").Append(mk2d(10.2)...); err != nil {
		t.Fatal(err)
	}
	m, _ := NewMatcher(db, DefaultParams())
	seq := p1.Streams[0].Seq()
	q := NewQuery(seq[len(seq)-8:len(seq)-1], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictPosition(q, matches, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Pos) != 2 {
		t.Fatalf("prediction dims = %d, want 2", len(pred.Pos))
	}
	truth, _ := seq.PositionAt(q.Now + 0.2)
	for k := 0; k < 2; k++ {
		if e := math.Abs(pred.Pos[k] - truth[k]); e > 2 {
			t.Errorf("dim %d error %.2f", k, e)
		}
	}
}

// TestPositionFromEqualsSequence: the prediction folds' positionFrom over
// a stream's columns writes what plr.Sequence.PositionFrom writes over
// the same vertices, bit for bit — on every segment boundary, a float to
// either side of it, inside every segment, before the first vertex and
// after the last — whatever the hint.
func TestPositionFromEqualsSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	st := store.NewStream("P", "S")
	for i, tm := 0, 0.0; i < 40; i++ {
		tm += 0.05 + rng.Float64()
		v := plr.Vertex{T: tm, Pos: []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 3}, State: plr.State(i % 3)}
		if err := st.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	seq := st.Seq()
	ts, pos, d := st.Track()
	last := len(seq) - 1
	times := []float64{seq[0].T - 1, seq[last].T + 1, math.Inf(-1), math.Inf(1)}
	for i, v := range seq {
		times = append(times, v.T, math.Nextafter(v.T, math.Inf(-1)), math.Nextafter(v.T, math.Inf(1)))
		if i < last {
			times = append(times, v.T+rng.Float64()*(seq[i+1].T-v.T))
		}
	}
	got, want := make([]float64, 2), make([]float64, 2)
	for _, at := range times {
		for _, hint := range []int{-1, 0, seq.IndexAtTime(at) - 1, seq.IndexAtTime(at), seq.IndexAtTime(at) + 1, last, last + 5} {
			_, gotIn := positionFrom(ts, pos, d, got, at, hint)
			wantIn := seq.PositionFrom(want, at, hint)
			if gotIn != wantIn || math.Float64bits(got[0]) != math.Float64bits(want[0]) || math.Float64bits(got[1]) != math.Float64bits(want[1]) {
				t.Fatalf("t=%v hint=%d: columns give %v, %v; the sequence %v, %v", at, hint, got, gotIn, want, wantIn)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { positionFrom(ts, pos, d, got, seq[20].T+0.01, 20) }); allocs != 0 {
		t.Errorf("positionFrom allocates %v times, want 0", allocs)
	}
}

// TestFoldUnderConcurrentAppend (run under -race): every prediction fold
// takes one view of each matched stream, and a writer appending to a
// matched stream meanwhile changes nothing for matches whose horizons
// lay inside the stream as it stood — each fold is bit-equal to the
// fold over the quiescent corpus. Folds over the kept list, whose
// result is kept while no stream holding an open window grows, are
// bit-equal to the quiescent fold at a length of the growing stream
// they observed, from before the fold to after it.
func TestFoldUnderConcurrentAppend(t *testing.T) {
	db := scanCorpus(t, 9, 6, 300)
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	q := regularQuery(t, db.Streams()[0], 10)
	// grow ends in a copy of the query: a match with no future until
	// the writer's first vertex lands.
	grow := db.Streams()[1]
	ts, _, _ := grow.Track()
	for _, v := range q.Seq {
		v.T += ts[len(ts)-1] + 1 - q.Seq[0].T
		if err := grow.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	found, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	horizons := []float64{0.1, 0.4, 1.5}
	var matches []Match
	inGrow := 0
	for _, mt := range found {
		ts, _, _ := mt.Stream.Track()
		if end := mt.Start + mt.N - 1; end+1 < len(ts) && ts[end]+horizons[2] <= ts[len(ts)-1] {
			matches = append(matches, mt)
			if mt.Stream == grow {
				inGrow++
			}
		}
	}
	if len(matches) < 20 || inGrow < 3 {
		t.Fatalf("fixture: %d usable matches, %d in the stream that grows", len(matches), inGrow)
	}
	type folds struct {
		pos  Prediction
		disp []float64
		seg  SegmentForecast
	}
	fold := func() folds {
		var f folds
		var errs [3]error
		f.pos, errs[0] = m.PredictPosition(q, matches, horizons[1], 0)
		f.disp, errs[1] = m.PredictDisplacement(q, matches, horizons[0], horizons[2], 0)
		f.seg, errs[2] = m.PredictNextSegment(q, matches, 0)
		if err := errors.Join(errs[:]...); err != nil {
			t.Fatal(err)
		}
		return f
	}
	want := fold()

	more := randomBreathing(rand.New(rand.NewSource(10)), 2000)
	for i := range more {
		more[i].T += 1e4
	}
	// keptAt is the plain loop over found with grow cut at each length
	// from len0 on: ref holds grow's vertices, extended as folds observe
	// grow grow.
	len0 := grow.Len()
	ref := store.NewStream(grow.PatientID, grow.SessionID)
	if err := ref.Append(grow.Seq()...); err != nil {
		t.Fatal(err)
	}
	onRef := slices.Clone(found)
	for i := range onRef {
		if onRef[i].Stream == grow {
			onRef[i].Stream = ref
		}
	}
	var keptAt [][]float64
	keptFold := func() {
		lo := grow.Len()
		got, err := m.PredictDisplacement(q, found, horizons[0], horizons[2], 0)
		if err != nil {
			t.Fatal(err)
		}
		hi := grow.Len()
		for len0+len(keptAt) <= hi {
			if l := len0 + len(keptAt); l > len0 {
				if err := ref.Append(more[l-len0-1]); err != nil {
					t.Fatal(err)
				}
			}
			w, err := refDisplacement(q, onRef, horizons[0], horizons[2], 0)
			if err != nil {
				t.Fatal(err)
			}
			keptAt = append(keptAt, w)
		}
		for l := lo; l <= hi; l++ {
			if slices.EqualFunc(got, keptAt[l-len0], sameFloat) {
				return
			}
		}
		t.Fatalf("a fold over the kept list, the stream growing from %d to %d vertices, gives %v; at those lengths the plain loop gives %v",
			lo, hi, got, keptAt[lo-len0:hi-len0+1])
	}
	keptFold()
	if !slices.Contains(m.answers.fut.open, grow) {
		t.Fatal("fixture: grow holds no open window of the kept list")
	}
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
	for folding := true; folding; {
		select {
		case <-appended:
			folding = false // one last fold over the final corpus
		default:
		}
		if got := fold(); !reflect.DeepEqual(got, want) {
			t.Fatalf("fold under append differs from the quiescent fold:\n got %+v\nwant %+v", got, want)
		}
		keptFold()
	}
	keptFold()
	if n := rowsRead(m, len(found), keptFold); n != 0 {
		t.Errorf("a repeated fold over the kept list at rest read %d rows, want 0", n)
	}
}
