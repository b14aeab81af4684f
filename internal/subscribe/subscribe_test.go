package subscribe

import (
	"context"
	"sort"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
	"stsmatch/internal/wal"
)

// mkSeq builds a congruent-by-construction sequence: states cycle
// EX/EOE/IN and positions repeat every cycle, so any window aligned on
// a cycle boundary is an exact-shape match for any other.
func mkSeq(t0 float64, n int) plr.Sequence {
	states := []plr.State{plr.EX, plr.EOE, plr.IN}
	seq := make(plr.Sequence, n)
	for i := range seq {
		seq[i] = plr.Vertex{
			T:     t0 + float64(i),
			Pos:   []float64{float64(i%3) * 0.5},
			State: states[i%3],
		}
	}
	return seq
}

func testDB(t *testing.T) (*store.DB, *store.Stream) {
	t.Helper()
	db := store.NewDB()
	p, err := db.AddPatient(store.PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S1")
	if err := st.Append(mkSeq(0, 6)...); err != nil {
		t.Fatal(err)
	}
	return db, st
}

func testManager(db *store.DB) *Manager {
	p := core.DefaultParams()
	p.RequireStateOrder = true
	p.DistThreshold = 1e9 // shape filter via states; accept any distance
	m := NewManager(p, 0)
	m.SetClock(func() float64 { return 1000 })
	if db != nil {
		db.AddMutationHook(m.OnMutation)
	}
	return m
}

// TestBaselineAndIncrementalEval: registration captures the current
// stream length as the baseline (no retro-matching); only windows
// closed by later appends produce events, with monotonically
// increasing sequence numbers.
func TestBaselineAndIncrementalEval(t *testing.T) {
	db, st := testDB(t)
	m := testManager(db)
	sub := wal.SubState{ID: "s1", PatientID: "P1", Pattern: mkSeq(0, 3)}
	if _, err := m.Register(&sub, db); err != nil {
		t.Fatal(err)
	}
	if len(sub.Cursors) != 1 || sub.Cursors[0].Len != 6 {
		t.Fatalf("baseline cursors = %+v, want [{P1 S1 6}]", sub.Cursors)
	}

	// Nothing pending yet: the existing 6 vertices are pre-baseline.
	if n := m.Drain(context.Background(), db); n != 0 {
		t.Fatalf("drain before any append emitted %d events", n)
	}

	// Append one full cycle: windows ending at 6, 7, 8 close; only the
	// window starting at 6 is state-congruent with the pattern.
	if err := st.Append(mkSeq(6, 3)...); err != nil {
		t.Fatal(err)
	}
	if n := m.Drain(context.Background(), db); n != 1 {
		t.Fatalf("drain emitted %d events, want 1", n)
	}
	events, wait, ok := m.Read("s1", 0)
	if !ok || len(events) != 1 {
		t.Fatalf("read: ok=%v events=%+v", ok, events)
	}
	e := events[0]
	if e.Seq != 1 || e.Start != 6 || e.N != 3 || e.PatientID != "P1" || e.SessionID != "S1" {
		t.Errorf("event = %+v, want seq 1 start 6 n 3", e)
	}
	if core.SourceRelation(e.Relation) != core.SamePatient {
		t.Errorf("relation = %v, want same-patient", core.SourceRelation(e.Relation))
	}
	if e.EndT != 8 {
		t.Errorf("endT = %v, want 8", e.EndT)
	}

	// The notify channel fires on the next event.
	select {
	case <-wait:
		t.Fatal("notify channel closed before any new event")
	default:
	}
	if err := st.Append(mkSeq(9, 3)...); err != nil {
		t.Fatal(err)
	}
	m.Drain(context.Background(), db)
	select {
	case <-wait:
	default:
		t.Fatal("notify channel not closed after new event")
	}
	events, _, _ = m.Read("s1", 1)
	if len(events) != 1 || events[0].Seq != 2 || events[0].Start != 9 {
		t.Fatalf("resume after seq 1: %+v, want one event seq 2 start 9", events)
	}

	// Ack trims the buffer and advances the durable high-water mark.
	if !m.Ack("s1", 1) {
		t.Fatal("ack on live subscription failed")
	}
	events, _, _ = m.Read("s1", 0)
	if len(events) != 1 || events[0].Seq != 2 {
		t.Fatalf("post-ack buffer = %+v, want only seq 2", events)
	}
	st2, _ := m.State("s1")
	if st2.Delivered != 1 || st2.NextSeq != 3 {
		t.Errorf("durable state delivered=%d nextSeq=%d, want 1/3", st2.Delivered, st2.NextSeq)
	}

	if !m.Delete("s1") {
		t.Fatal("delete failed")
	}
	if _, _, ok := m.Read("s1", 0); ok {
		t.Error("read succeeded after delete")
	}
}

// TestScopeFiltering: a session-scoped subscription only sees its own
// stream's appends; same-session self-exclusion still applies, so the
// pattern is timestamped far in the future.
func TestScopeFiltering(t *testing.T) {
	db, st1 := testDB(t)
	st2 := db.Patient("P1").AddStream("S2")
	if err := st2.Append(mkSeq(0, 6)...); err != nil {
		t.Fatal(err)
	}
	m := testManager(db)
	sub := wal.SubState{ID: "scoped", PatientID: "P1", SessionID: "S1", Pattern: mkSeq(1e6, 3)}
	if _, err := m.Register(&sub, db); err != nil {
		t.Fatal(err)
	}
	if err := st2.Append(mkSeq(6, 3)...); err != nil {
		t.Fatal(err)
	}
	if n := m.Drain(context.Background(), db); n != 0 {
		t.Fatalf("out-of-scope append emitted %d events", n)
	}
	if err := st1.Append(mkSeq(6, 3)...); err != nil {
		t.Fatal(err)
	}
	if n := m.Drain(context.Background(), db); n != 1 {
		t.Fatalf("in-scope append emitted %d events, want 1", n)
	}
}

// TestBufferOverflowDropsOldest: a consumer further behind than the
// buffer cap loses the oldest events, and the loss is counted.
func TestBufferOverflowDropsOldest(t *testing.T) {
	db, st := testDB(t)
	p := core.DefaultParams()
	p.DistThreshold = 1e9
	m := NewManager(p, 2)
	m.SetClock(func() float64 { return 1000 })
	db.AddMutationHook(m.OnMutation)
	sub := wal.SubState{ID: "s1", PatientID: "P1", Pattern: mkSeq(0, 3)}
	if _, err := m.Register(&sub, db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(mkSeq(float64(6+3*i), 3)...); err != nil {
			t.Fatal(err)
		}
		m.Drain(context.Background(), db)
	}
	events, _, _ := m.Read("s1", 0)
	if len(events) != 2 || events[0].Seq != 2 || events[1].Seq != 3 {
		t.Fatalf("buffered events = %+v, want seqs 2,3", events)
	}
	status, ok := m.Get("s1")
	if !ok || status.Dropped != 1 || status.Buffered != 2 {
		t.Fatalf("status = %+v, want dropped 1 buffered 2", status)
	}
}

// TestKModeCapsPerEvaluation: K limits each incremental evaluation to
// the k best new matches.
func TestKModeCapsPerEvaluation(t *testing.T) {
	db, st := testDB(t)
	m := testManager(db)
	sub := wal.SubState{ID: "k1", PatientID: "P1", K: 1, Pattern: mkSeq(0, 3)}
	if _, err := m.Register(&sub, db); err != nil {
		t.Fatal(err)
	}
	// Two full cycles in one batch: two congruent windows close in a
	// single evaluation; K=1 keeps only the best.
	if err := st.Append(mkSeq(6, 6)...); err != nil {
		t.Fatal(err)
	}
	if n := m.Drain(context.Background(), db); n != 1 {
		t.Fatalf("k=1 evaluation emitted %d events", n)
	}
}

// TestStateRoundTripRearms: a state exported by States() re-arms on a
// fresh manager with cursors, sequence numbers, and buffered events
// intact — the recovery and replication path.
func TestStateRoundTripRearms(t *testing.T) {
	db, st := testDB(t)
	m := testManager(db)
	sub := wal.SubState{ID: "s1", PatientID: "P1", Pattern: mkSeq(0, 3)}
	if _, err := m.Register(&sub, db); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(mkSeq(6, 3)...); err != nil {
		t.Fatal(err)
	}
	m.Drain(context.Background(), db)

	states := m.States()
	if len(states) != 1 {
		t.Fatalf("States() = %d entries", len(states))
	}
	m2 := testManager(nil)
	if _, err := m2.Register(&states[0], nil); err != nil {
		t.Fatal(err)
	}
	events, _, ok := m2.Read("s1", 0)
	if !ok || len(events) != 1 || events[0].Seq != 1 {
		t.Fatalf("re-armed buffer = %+v", events)
	}
	// The cursor survived: re-evaluating the same boundary is a no-op,
	// so no duplicate events are derived.
	if n := m2.EvalStream(context.Background(), db, "P1", "S1", uint64(st.Len())); n != 0 {
		t.Fatalf("re-evaluation at the recovered cursor emitted %d events", n)
	}
	st2, _ := m2.State("s1")
	if st2.NextSeq != 2 {
		t.Errorf("re-armed nextSeq = %d, want 2", st2.NextSeq)
	}
}

// TestStandingEvalDoesNotGrowWithCorpus: a standing query examines only
// the suffix windows each append completes, so the candidates it
// considers per appended vertex must not grow with the corpus it is
// armed over. The same 30 s continuation of one stream is appended,
// vertex by vertex with a drain after each (the ingest path's own
// sequence), under an unscoped subscription over a 3-patient cohort and
// over one 16 times the size. The funnel is deterministic, so the bound
// is on counts, not on a clock.
func TestStandingEvalDoesNotGrowWithCorpus(t *testing.T) {
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 100)
	if err != nil {
		t.Fatal(err)
	}
	live, err := fsm.SegmentAll(fsm.DefaultConfig(), gen.Generate(90))
	if err != nil {
		t.Fatal(err)
	}
	cut := sort.Search(len(live), func(i int) bool { return live[i].T > 60 })
	if cut < 10 || cut == len(live) {
		t.Fatalf("live trace splits %d/%d at 60 s; fixture is broken", cut, len(live))
	}
	perVertex := func(patients int) (candidates float64, corpus int) {
		cfg := signal.DefaultCohort()
		cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = patients, 1, 60
		db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.AddPatient(store.PatientInfo{ID: "LIVE"})
		if err != nil {
			t.Fatal(err)
		}
		st := p.AddStream("S-LIVE")
		if err := st.Append(live[:cut]...); err != nil {
			t.Fatal(err)
		}
		for _, s := range db.Streams() {
			corpus += s.Len()
		}
		m := NewManager(core.DefaultParams(), 0)
		db.AddMutationHook(m.OnMutation)
		if _, err := m.Register(&wal.SubState{ID: "s", Pattern: live[cut-10 : cut]}, db); err != nil {
			t.Fatal(err)
		}
		for _, v := range live[cut:] {
			if err := st.Append(v); err != nil {
				t.Fatal(err)
			}
			m.Drain(context.Background(), db)
		}
		status, ok := m.Get("s")
		if !ok {
			t.Fatal("subscription vanished")
		}
		return float64(status.Candidates) / float64(len(live)-cut), corpus
	}
	small, nSmall := perVertex(3)
	large, nLarge := perVertex(48)
	t.Logf("candidates per appended vertex: %.2f over %d vertices, %.2f over %d", small, nSmall, large, nLarge)
	if nLarge < 10*nSmall {
		t.Fatalf("the large corpus is %d vertices against %d: not the scale the test is about", nLarge, nSmall)
	}
	if small == 0 {
		t.Fatal("the standing query considered no candidate at 1x: nothing was measured")
	}
	if large > 1.5*small {
		t.Errorf("standing eval is not sub-linear in the corpus: %.2f candidates per vertex at 1x, %.2f at 16x", small, large)
	}
}
