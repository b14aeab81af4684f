package wal

import (
	"reflect"
	"testing"

	"stsmatch/internal/store"
)

func testSubState() *SubState {
	return &SubState{
		ID:        "sub-1",
		PatientID: "P1",
		SessionID: "S1",
		Threshold: 2.5,
		Pattern:   mkVerts(0, 3),
		NextSeq:   4,
		Delivered: 2,
		Cursors:   []SubCursor{{PatientID: "P1", SessionID: "S1", Len: 7}},
		Events: []SubEvent{
			{Seq: 1, PatientID: "P1", SessionID: "S1", Start: 2, N: 3,
				Relation: 1, Distance: 0.5, Weight: 0.4, EndT: 9.5, At: 100},
			{Seq: 3, PatientID: "P1", SessionID: "S2", Start: 4, N: 3,
				Relation: 0, Distance: 0.1, Weight: 0.9, EndT: 12, At: 101},
		},
	}
}

func TestSubRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: TypeSubUpsert, LSN: 9, Sub: testSubState()},
		{Type: TypeSubDelete, LSN: 10, SubID: "sub-1"},
		{Type: TypeSubAck, LSN: 11, SubID: "sub-1", SubAck: 42},
	}
	for _, rec := range recs {
		got, err := decodePayload(encodePayload(rec))
		if err != nil {
			t.Fatalf("%s: %v", rec.Type, err)
		}
		if got.Type != rec.Type || got.LSN != rec.LSN ||
			got.SubID != rec.SubID || got.SubAck != rec.SubAck {
			t.Errorf("%s: header mismatch: got %+v want %+v", rec.Type, got, rec)
		}
		if rec.Sub != nil && !reflect.DeepEqual(got.Sub, rec.Sub) {
			t.Errorf("%s: state mismatch:\n got %+v\nwant %+v", rec.Type, got.Sub, rec.Sub)
		}
	}
}

// TestSnapshotCarriesSubscriptions: the v3 snapshot section round-trips
// full subscription state (cursors, buffered events, sequence numbers)
// through compaction.
func TestSnapshotCarriesSubscriptions(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDB()
	p, err := db.AddPatient(store.PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddStream("S1").Append(mkVerts(0, 7)...); err != nil {
		t.Fatal(err)
	}
	want := []SubState{*testSubState(), {ID: "sub-2", Pattern: mkVerts(0, 2), Threshold: 1, NextSeq: 1}}
	if _, err := l.Snapshot(db, nil, want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subscriptions) != len(want) {
		t.Fatalf("recovered %d subscriptions, want %d", len(res.Subscriptions), len(want))
	}
	got := res.Subscriptions[0]
	if !reflect.DeepEqual(got, want[0]) {
		t.Errorf("subscription state mismatch:\n got %+v\nwant %+v", got, want[0])
	}
	if res.Subscriptions[1].ID != "sub-2" || res.Subscriptions[1].NextSeq != 1 {
		t.Errorf("second subscription mismatch: %+v", res.Subscriptions[1])
	}
}

// TestSubOpsReplayedInLogOrder: recovery returns subscription ops —
// upserts, acks, deletes, and the boundary of every vertex-append from
// the first subscription named on, whether or not one is still live —
// in exactly log order, so the server can re-derive the pre-crash event
// sequence deterministically. Consecutive appends to one stream share
// one boundary, at the last one's length.
func TestSubOpsReplayedInLogOrder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := testSubState()
	sub.Cursors = []SubCursor{{PatientID: "P1", SessionID: "S1", Len: 3}}
	sub.NextSeq = 1
	sub.Delivered = 0
	sub.Events = nil
	recs := []Record{
		{Type: TypePatientUpsert, Patient: store.PatientInfo{ID: "P1"}},
		{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"},
		{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S2"},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(0, 3)},
		{Type: TypeSubUpsert, Sub: sub},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(3, 2)},
		{Type: TypeSubAck, SubID: "sub-1", SubAck: 1},
		{Type: TypeSubDelete, SubID: "sub-1"},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(5, 1)},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(6, 1)},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S2", Vertices: mkVerts(0, 2)},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(7, 1)},
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.NumVertices() != 10 {
		t.Fatalf("replayed %d vertices, want 10", res.DB.NumVertices())
	}
	boundary := func(sid string, to int) SubReplayOp { return SubReplayOp{PatientID: "P1", SessionID: sid, To: to} }
	want := []SubReplayOp{
		{Upsert: sub},
		boundary("S1", 5),
		{AckID: "sub-1", Ack: 1},
		{DeleteID: "sub-1"},
		boundary("S1", 7),
		boundary("S2", 2),
		boundary("S1", 8),
	}
	if len(res.SubOps) == len(want) && res.SubOps[0].Upsert != nil && res.SubOps[0].Upsert.ID == sub.ID {
		want[0].Upsert = res.SubOps[0].Upsert // the journal's copy of the state
	}
	if !reflect.DeepEqual(res.SubOps, want) {
		t.Errorf("sub ops:\n got %+v\nwant %+v", res.SubOps, want)
	}
}

// TestRecoveredReplayRecordsBoundaries: a recovery that names no
// subscription records no boundary, and the interpreter it hands the
// node records the boundary of each append after it, since a live node
// can register a subscription at any time.
func TestRecoveredReplayRecordsBoundaries(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(0, 3)},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SubOps) != 0 {
		t.Errorf("a recovery naming no subscription returned ops %+v", res.SubOps)
	}
	if _, err := res.Replay.Apply(Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if ops, want := res.Replay.TakeSubOps(), []SubReplayOp{{PatientID: "P1", SessionID: "S1", To: 4}}; !reflect.DeepEqual(ops, want) {
		t.Errorf("after recovery an append recorded %+v, want %+v", ops, want)
	}
}

// TestDeletedSubscriptionIgnoresLaterAcks: an ack journaled after its
// subscription's delete replays after the delete, so applied in log
// order it meets no subscription (an ack of an unknown one is a no-op,
// subscribe.Manager.Ack; the server's
// TestSubscriptionAckAfterDeleteStaysDeleted recovers such a log).
func TestDeletedSubscriptionIgnoresLaterAcks(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := testSubState()
	for _, rec := range []Record{
		{Type: TypeSubUpsert, Sub: sub},
		{Type: TypeSubDelete, SubID: sub.ID},
		{Type: TypeSubAck, SubID: sub.ID, SubAck: 9},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := res.SubOps
	if len(ops) != 3 || ops[0].Upsert == nil || ops[1].DeleteID != sub.ID || ops[2].AckID != sub.ID {
		t.Errorf("sub ops %+v, want the upsert, then the delete, then the ack", ops)
	}
}
