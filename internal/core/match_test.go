package core

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"unsafe"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// buildTestDB constructs a deterministic database:
//
//	P1/S1: 12 regular cycles, amplitude 10 (the query's own stream)
//	P1/S2: 12 regular cycles, amplitude 10.5 (same patient)
//	P2/S1: 12 regular cycles, amplitude 11   (other patient)
//	P3/S1: 12 regular cycles, amplitude 30   (other patient, far)
func buildTestDB(t *testing.T) *store.DB {
	t.Helper()
	db := store.NewDB()
	add := func(pid, sid string, amp float64) {
		p := db.Patient(pid)
		if p == nil {
			var err error
			p, err = db.AddPatient(store.PatientInfo{ID: pid})
			if err != nil {
				t.Fatal(err)
			}
		}
		st := p.AddStream(sid)
		if err := st.Append(breathingWindow(0, amp, unitDurs(36))...); err != nil {
			t.Fatal(err)
		}
	}
	add("P1", "S1", 10)
	add("P1", "S2", 10.5)
	add("P2", "S1", 11)
	add("P3", "S1", 30)
	return db
}

func TestNewMatcherValidation(t *testing.T) {
	db := store.NewDB()
	bad := DefaultParams()
	bad.DistThreshold = -1
	if _, err := NewMatcher(db, bad); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewMatcher(nil, DefaultParams()); err == nil {
		t.Error("nil db accepted")
	}
}

func TestFindSimilarBasics(t *testing.T) {
	db := buildTestDB(t)
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	qseq := seq[len(seq)-10:]
	q := NewQuery(qseq, "P1", "S1")

	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches on a database full of near-identical cycles")
	}
	// Results sorted by ascending distance.
	if !sort.SliceIsSorted(matches, func(a, b int) bool {
		return matches[a].Distance < matches[b].Distance
	}) {
		t.Error("matches not sorted by distance")
	}
	for _, mt := range matches {
		if mt.Distance > m.Params.DistThreshold {
			t.Errorf("match above threshold: %v", mt.Distance)
		}
		// Window geometry consistent.
		w := mt.Window()
		if len(w) != mt.N {
			t.Errorf("window length %d != N %d", len(w), mt.N)
		}
		if w.StateSignature() != qseq.StateSignature() {
			t.Errorf("state signature mismatch: %s vs %s", w.StateSignature(), qseq.StateSignature())
		}
		// Same-session matches must end strictly before the query
		// begins (online semantics).
		if mt.Relation == SameSession && mt.EndTime() >= qseq[0].T {
			t.Errorf("same-session match overlaps query: end %v >= start %v", mt.EndTime(), qseq[0].T)
		}
		if mt.Weight <= 0 {
			t.Error("non-positive match weight")
		}
	}
	// The best same-session match must beat other patients: identical
	// amplitude and no stream-weight penalty.
	if matches[0].Relation != SameSession {
		t.Errorf("best match relation = %v, want same-session", matches[0].Relation)
	}
}

func TestFindSimilarExcludesFarPatients(t *testing.T) {
	db := buildTestDB(t)
	p := DefaultParams()
	p.DistThreshold = 3 // tight: P3 (amplitude 30) cannot qualify
	m, _ := NewMatcher(db, p)
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range matches {
		if mt.Stream.PatientID == "P3" {
			t.Errorf("far patient matched at distance %v", mt.Distance)
		}
	}
}

func TestFindSimilarRestriction(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	restrict := map[string]bool{"P1": true, "P2": true}
	matches, err := m.FindSimilar(q, restrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("restriction removed everything")
	}
	for _, mt := range matches {
		if !restrict[mt.Stream.PatientID] {
			t.Errorf("match from excluded patient %s", mt.Stream.PatientID)
		}
	}
}

func TestFindSimilarStateOrderPrecondition(t *testing.T) {
	// A query starting with IN must never match windows starting with
	// EX ("a sequence that starts with an inhale cannot be compared
	// with one that starts with an exhale").
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	// Find a window starting with IN.
	start := -1
	for i := len(seq) - 12; i > 0; i-- {
		if seq[i].State == plr.IN {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal("no IN vertex found")
	}
	q := NewQuery(seq[start:start+8], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range matches {
		if mt.Window()[0].State != plr.IN {
			t.Error("match does not start with IN")
		}
	}
}

func TestFindSimilarTooShort(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	if _, err := m.FindSimilar(Query{Seq: nil}, nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestTopK(t *testing.T) {
	db := buildTestDB(t)
	p := DefaultParams()
	p.DistThreshold = 1e-12 // TopK must ignore the threshold
	m, _ := NewMatcher(db, p)
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	matches, err := m.TopK(q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("TopK returned %d, want 5", len(matches))
	}
	// Threshold restored afterwards.
	if m.Params.DistThreshold != 1e-12 {
		t.Error("TopK leaked threshold change")
	}
	if _, err := m.TopK(q, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestTopKRestrict(t *testing.T) {
	db := buildTestDB(t)
	p := DefaultParams()
	p.DistThreshold = 1e-12 // TopK must ignore the threshold
	m, _ := NewMatcher(db, p)
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")

	restrict := map[string]bool{"P2": true}
	got, err := m.TopK(q, 50, restrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("restricted TopK found nothing in P2's near-identical stream")
	}
	for _, mt := range got {
		if mt.Stream.PatientID != "P2" {
			t.Errorf("restricted TopK returned a match from %s", mt.Stream.PatientID)
		}
	}
	// The restricted result must equal the unrestricted result
	// filtered to the allowed patients: restriction prunes candidate
	// streams, it must not change scoring.
	all, err := m.TopK(q, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []Match
	for _, mt := range all {
		if restrict[mt.Stream.PatientID] {
			want = append(want, mt)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("restricted TopK has %d matches, filtered unrestricted has %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Stream != got[i].Stream || want[i].Start != got[i].Start || want[i].Distance != got[i].Distance {
			t.Errorf("match %d: restricted %+v != filtered %+v", i, got[i], want[i])
		}
	}
}

// TestFindSimilarAblationAllocatesNoStartList: with RequireStateOrder
// off every window is a candidate, and the driver walks them as a
// start range — it must not materialise the 0..possible start list the
// old scan filled per stream.
func TestFindSimilarAblationAllocatesNoStartList(t *testing.T) {
	const cycles = 4000
	db := store.NewDB()
	p1, err := db.AddPatient(store.PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	st := p1.AddStream("S1")
	if err := st.Append(breathingWindow(0, 10, unitDurs(3*cycles))...); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.RequireStateOrder = false
	p.Parallelism = 1
	// No window of a different amplitude is within this threshold, so
	// the search allocates for bookkeeping only.
	p.DistThreshold = 1e-3
	q := Query{Seq: breathingWindow(0, 20, unitDurs(9)), PatientID: "Q"}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	// A fresh matcher, so no scratch from an earlier search can hide
	// the allocation.
	m, err := NewMatcher(db, p)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if len(matches) != 0 {
		t.Fatalf("fixture: %d matches, want none", len(matches))
	}
	// A start list for this stream would be 3*cycles ints (~94 KB).
	if got, list := ms.TotalAlloc-before, uint64(3*cycles*8); got >= list {
		t.Errorf("ablation search allocated %d bytes; a materialised start list alone is %d", got, list)
	}
}

func TestMatchWeightFormula(t *testing.T) {
	db := buildTestDB(t)
	m, _ := NewMatcher(db, DefaultParams())
	own := db.Patient("P1").StreamBySession("S1")
	seq := own.Seq()
	q := NewQuery(seq[len(seq)-10:], "P1", "S1")
	matches, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range matches {
		want := m.Params.StreamWeight(mt.Relation) / (1 + mt.Distance)
		if math.Abs(mt.Weight-want) > 1e-12 {
			t.Errorf("weight = %v, want %v", mt.Weight, want)
		}
	}
}

func TestRelationOf(t *testing.T) {
	st := store.NewStream("P1", "S1")
	cases := []struct {
		q    Query
		want SourceRelation
	}{
		{Query{PatientID: "P1", SessionID: "S1"}, SameSession},
		{Query{PatientID: "P1", SessionID: "S2"}, SamePatient},
		{Query{PatientID: "P2", SessionID: "S1"}, OtherPatient},
		{Query{}, OtherPatient}, // ad-hoc query
	}
	for _, c := range cases {
		if got := relationOf(c.q, st); got != c.want {
			t.Errorf("relationOf(%+v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestNewQuerySetsNow(t *testing.T) {
	seq := breathingWindow(5, 10, unitDurs(6))
	q := NewQuery(seq, "P", "S")
	if q.Now != seq[len(seq)-1].T {
		t.Errorf("Now = %v, want %v", q.Now, seq[len(seq)-1].T)
	}
	empty := NewQuery(nil, "P", "S")
	if empty.Now != 0 {
		t.Error("empty query Now should be 0")
	}
}

// TestFindSimilarOverRefusedDimension is the regression test for a
// vertex without a position in the middle of a 1-dimensional batch: the
// store used to take it (its prefix sums clamp to the shorter vector) and
// the next loose search indexed the missing coordinate. The append stops
// there now, and a search over what landed scores whole windows only.
func TestFindSimilarOverRefusedDimension(t *testing.T) {
	db := buildTestDB(t)
	p, err := db.AddPatient(store.PatientInfo{ID: "P4"})
	if err != nil {
		t.Fatal(err)
	}
	batch := breathingWindow(0, 10, unitDurs(36))
	batch[18].Pos = nil
	st := p.AddStream("S1")
	if err := st.Append(batch...); err == nil || st.Len() != 18 {
		t.Fatalf("append over a vertex without a position: %v, %d vertices landed; want an error and 18", err, st.Len())
	}
	params := DefaultParams()
	params.DistThreshold = 1e6
	m, err := NewMatcher(db, params)
	if err != nil {
		t.Fatal(err)
	}
	own := db.Patient("P1").StreamBySession("S1").Seq()
	got, err := m.FindSimilar(NewQuery(own[len(own)-10:], "P1", "S1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	inP4 := 0
	for _, mt := range got {
		if mt.Stream == st {
			inP4++
			if mt.Start+mt.N > 18 {
				t.Errorf("match [%d, %d) reaches past the 18 vertices that landed", mt.Start, mt.Start+mt.N)
			}
		}
	}
	if inP4 == 0 {
		t.Error("fixture: the loose search matched nothing in the stream that refused a vertex")
	}
}

// TestNonFiniteDistanceNeverMatches: finite vertices can still make a
// distance that is not a number — displacements that overflow to an
// infinity on both sides, and Inf-Inf — and such a distance fails the
// threshold comparison instead of slipping past it: no search mode and
// no standing evaluation returns it, and the counts still partition.
func TestNonFiniteDistanceNeverMatches(t *testing.T) {
	db := buildTestDB(t)
	huge := breathingWindow(0, 1, unitDurs(36))
	for i := range huge {
		huge[i].Pos[0] = (2*huge[i].Pos[0] - 1) * 1.5e308 // each displacement overflows
	}
	for _, pid := range []string{"H1", "H2"} {
		p, err := db.AddPatient(store.PatientInfo{ID: pid})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddStream("S1").Append(huge.Clone()...); err != nil {
			t.Fatal(err)
		}
	}
	q := NewQuery(huge[20:30], "H1", "S1")
	if d, err := DefaultParams().Distance(q.Seq, huge[2:12], OtherPatient); err != nil || !math.IsNaN(d) {
		t.Fatalf("fixture: distance between overflowing windows = %v, %v; want NaN", d, err)
	}
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []Match) {
		t.Helper()
		for _, mt := range got {
			if math.IsNaN(mt.Distance) || math.IsNaN(mt.Weight) {
				t.Errorf("%s: returned %+v", label, mt)
			}
		}
	}
	got, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("FindSimilar", got)
	if got, err = m.TopK(q, 5, nil); err != nil {
		t.Fatal(err)
	}
	check("TopK", got)
	sq, err := NewStandingQuery(DefaultParams(), q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Patient("H2").StreamBySession("S1")
	got, counts, _ := sq.EvalRange(st, 0, st.Len())
	check("EvalRange", got)
	if !partitions(counts) || counts.Matched != len(got) || counts.DistRejected == 0 {
		t.Errorf("EvalRange counts %+v for %d matches", counts, len(got))
	}
}

// TestMatchSize: a threshold search's result slice is nearly all a
// prediction allocates, so a Match stays six words.
func TestMatchSize(t *testing.T) {
	if size := unsafe.Sizeof(Match{}); size != 48 {
		t.Errorf("a Match is %d bytes, want 48", size)
	}
}

// TestAnswerSlotSize: a matcher keeps up to answerCap top-k slots, so a
// slot carries nothing only the threshold answer uses (its returned list
// and its futures sit in answers beside it).
func TestAnswerSlotSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the sizes are of 64-bit words")
	}
	if size := unsafe.Sizeof(answer{}); size != 576 {
		t.Errorf("an answer is %d bytes, want 576", size)
	}
}
