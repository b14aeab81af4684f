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
// upserts, acks, deletes, and the append boundaries recorded while a
// subscription was live — in exactly log order, so the server can
// re-derive the pre-crash event sequence deterministically.
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
		// Before any subscription: no boundary op recorded.
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(0, 3)},
		{Type: TypeSubUpsert, Sub: sub},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(3, 2)},
		{Type: TypeSubAck, SubID: "sub-1", SubAck: 1},
		{Type: TypeSubDelete, SubID: "sub-1"},
		// After the delete: no live subscription, no boundary op.
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(5, 1)},
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
	if res.DB.NumVertices() != 6 {
		t.Fatalf("replayed %d vertices, want 6", res.DB.NumVertices())
	}
	ops := res.SubOps
	if len(ops) != 4 {
		t.Fatalf("got %d sub ops, want 4: %+v", len(ops), ops)
	}
	if ops[0].Upsert == nil || ops[0].Upsert.ID != "sub-1" {
		t.Errorf("op 0 should be the upsert, got %+v", ops[0])
	}
	if ops[1].Upsert != nil || ops[1].DeleteID != "" || ops[1].AckID != "" ||
		ops[1].PatientID != "P1" || ops[1].SessionID != "S1" || ops[1].To != 5 {
		t.Errorf("op 1 should be the append boundary 5, got %+v", ops[1])
	}
	if ops[2].AckID != "sub-1" || ops[2].Ack != 1 {
		t.Errorf("op 2 should be the ack, got %+v", ops[2])
	}
	if ops[3].DeleteID != "sub-1" {
		t.Errorf("op 3 should be the delete, got %+v", ops[3])
	}
}

// TestDeletedSubscriptionIgnoresLaterAcks: an ack for a deleted
// subscription replays as a no-op instead of resurrecting it.
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
	for _, op := range res.SubOps {
		if op.AckID != "" {
			t.Errorf("ack after delete should not replay, got %+v", op)
		}
	}
}
