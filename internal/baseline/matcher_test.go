package baseline

import (
	"errors"
	"math"
	"sort"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// periodic builds a stream of regular cycles.
func periodic(pid, sid string, amp float64, cycles int) *store.Stream {
	st := store.NewStream(pid, sid)
	states := []plr.State{plr.EX, plr.EOE, plr.IN}
	y := amp
	t := 0.0
	vs := plr.Sequence{{T: 0, Pos: []float64{amp}, State: plr.EX}}
	for i := 0; i < cycles*3; i++ {
		stt := states[i%3]
		switch stt {
		case plr.EX:
			y -= amp
		case plr.IN:
			y += amp
		}
		t++
		vs = append(vs, plr.Vertex{T: t, Pos: []float64{y}, State: states[(i+1)%3]})
		vs[len(vs)-2].State = stt
	}
	if err := st.Append(vs...); err != nil {
		panic(err)
	}
	return st
}

func buildDB() *store.DB {
	db := store.NewDB()
	p1, _ := db.AddPatient(store.PatientInfo{ID: "P1"})
	p1.Streams = append(p1.Streams, periodic("P1", "S1", 10, 15))
	p2, _ := db.AddPatient(store.PatientInfo{ID: "P2"})
	p2.Streams = append(p2.Streams, periodic("P2", "S1", 10.5, 15))
	return db
}

func TestBaselineMatcherFindSimilar(t *testing.T) {
	db := buildDB()
	m := NewMatcher(db, MethodEuclidean)
	m.TopK = 8
	seq := db.Patient("P1").Streams[0].Seq()
	q := core.NewQuery(seq[len(seq)-8:], "P1", "S1")
	matches, err := m.FindSimilar(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 8 {
		t.Fatalf("matches = %d, want TopK=8", len(matches))
	}
	if !sort.SliceIsSorted(matches, func(a, b int) bool {
		return matches[a].Distance < matches[b].Distance
	}) {
		t.Error("matches not sorted")
	}
	// Online semantics: same-stream matches must precede the query.
	for _, mt := range matches {
		if mt.Stream.PatientID == "P1" && mt.Stream.SessionID == "S1" &&
			mt.EndTime() >= q.Seq[0].T {
			t.Error("same-stream match overlaps the query's present")
		}
	}
	if _, err := m.FindSimilar(core.Query{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestBaselineMatcherAllMethods(t *testing.T) {
	db := buildDB()
	seq := db.Patient("P1").Streams[0].Seq()
	q := core.NewQuery(seq[len(seq)-8:], "P1", "S1")
	for _, method := range []Method{MethodEuclidean, MethodWeightedEuclidean, MethodDTW, MethodLCSS} {
		m := NewMatcher(db, method)
		matches, err := m.FindSimilar(q)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(matches) == 0 {
			t.Errorf("%v: no matches", method)
		}
		for _, mt := range matches {
			if math.IsNaN(mt.Distance) || mt.Distance < 0 {
				t.Errorf("%v: bad distance %v", method, mt.Distance)
			}
		}
	}
}

// TestBaselinePrediction: baseline matches predict through the core fold
// (this package has none of its own).
func TestBaselinePrediction(t *testing.T) {
	db := buildDB()
	m := NewMatcher(db, MethodWeightedEuclidean)
	seq := db.Patient("P1").Streams[0].Seq()
	q := core.NewQuery(seq[len(seq)-9:len(seq)-1], "P1", "S1")
	matches, err := m.FindSimilar(q)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewMatcher(db, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := cm.PredictPosition(q, matches, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := seq.PositionAt(q.Now + 0.3)
	if e := math.Abs(pred.Pos[0] - truth[0]); e > 4 {
		t.Errorf("baseline prediction error %.2f unreasonably large", e)
	}
	if _, err := cm.PredictPosition(q, nil, 0.3, 1); !errors.Is(err, core.ErrNoMatches) {
		t.Errorf("want ErrNoMatches, got %v", err)
	}
}

func TestBaselineIgnoresStates(t *testing.T) {
	// Unlike the core matcher, the baseline retrieves windows with
	// arbitrary state alignment — the key structural difference.
	db := buildDB()
	m := NewMatcher(db, MethodEuclidean)
	m.TopK = 50
	seq := db.Patient("P1").Streams[0].Seq()
	q := core.NewQuery(seq[len(seq)-8:], "P1", "S1")
	matches, err := m.FindSimilar(q)
	if err != nil {
		t.Fatal(err)
	}
	misaligned := false
	qSig := q.Seq.StateSignature()
	for _, mt := range matches {
		if mt.Window().StateSignature() != qSig {
			misaligned = true
			break
		}
	}
	if !misaligned {
		t.Error("expected at least one state-misaligned candidate among top-50")
	}
}
