package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stsmatch/internal/store"
)

// The bytes a shard that served the window-signature index left in its
// data dir, built by hand because the encoder is gone: one record of
// type 8 in the log, and the snapshot's reserved byte set with the same
// four configuration fields behind it.

// retiredIndexFields is the old configuration's wire form: two uvarint
// segment counts, two float64 bucket widths.
func retiredIndexFields(b []byte) []byte {
	b = binary.AppendUvarint(b, 9)
	b = binary.AppendUvarint(b, 24)
	b = appendF64(b, 4)
	return appendF64(b, 2.5)
}

// retiredIndexPayload is the type-8 record payload at lsn.
func retiredIndexPayload(lsn uint64) []byte {
	return retiredIndexFields(binary.AppendUvarint([]byte{8}, lsn))
}

// withRetiredIndexSection returns the snapshot raw (as the writer makes
// it, reserved byte 0) with the byte set and the fields inserted.
func withRetiredIndexSection(t *testing.T, raw []byte) []byte {
	t.Helper()
	const hdrLen = 4 + 2 + 8
	d := decoder{b: raw[hdrLen:]}
	for i, n := uint64(0), d.uvarint(); i < n; i++ {
		d.str()
		d.str()
		d.uvarint()
		d.f64()
		for j, dims := uint64(0), d.uvarint(); j < dims; j++ {
			d.f64()
		}
	}
	at := hdrLen + d.off
	if d.err != nil || raw[at] != 0 {
		t.Fatalf("no reserved 0 byte after the session section (err %v)", d.err)
	}
	out := append([]byte{}, raw[:at]...)
	out = retiredIndexFields(append(out, 1))
	return append(out, raw[at+1:]...)
}

// writeSegmentFile writes a log segment holding recs from LSN first on,
// with the retired type-8 record put in before recs[retiredAt] (-1:
// nowhere).
func writeSegmentFile(t *testing.T, dir string, first uint64, recs []Record, retiredAt int) {
	t.Helper()
	var b []byte
	b = append(b, segMagic...)
	b = binary.LittleEndian.AppendUint16(b, segVersion)
	b = binary.LittleEndian.AppendUint64(b, first)
	lsn := first
	for i, rec := range recs {
		if i == retiredAt {
			b = appendFrame(b, retiredIndexPayload(lsn))
			lsn++
		}
		rec.LSN = lsn
		b = appendFrame(b, encodePayload(rec))
		lsn++
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(first)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// recovered is everything a server rebuilds itself from.
type recovered struct {
	DB         []byte
	Sessions   []SessionState
	Subs       []SubState
	SubOps     []SubReplayOp
	Migrations []MigrationState
}

// openAndCompare recovers both dirs and fails unless they hold the same
// database, sessions, subscriptions and migrations with nothing
// truncated; it returns withIndex's log for the caller to go on with.
func openAndCompare(t *testing.T, withIndex, without string) (*Log, *RecoveryResult) {
	t.Helper()
	open := func(dir string) (*Log, *RecoveryResult, recovered) {
		l, res, err := Open(Options{Dir: dir}, nil)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if res.RecordsTruncated != 0 || res.BytesTruncated != 0 {
			t.Fatalf("%s: recovery truncated %d records, %d bytes", dir, res.RecordsTruncated, res.BytesTruncated)
		}
		var db bytes.Buffer
		if err := res.DB.WriteBinary(&db); err != nil {
			t.Fatal(err)
		}
		return l, res, recovered{db.Bytes(), res.Sessions, res.Subscriptions, res.SubOps, res.Migrations}
	}
	l, res, got := open(withIndex)
	l2, _, want := open(without)
	l2.Close()
	if !reflect.DeepEqual(got, want) {
		l.Close()
		t.Fatalf("recovery differs with the retired index parts present:\n got %+v\nwant %+v", got, want)
	}
	return l, res
}

// sessionRecords is one ingesting session with a subscription armed
// before its vertices and a migration prepared after them, so every
// kind of recovered state is non-empty.
func sessionRecords() []Record {
	recs := []Record{
		{Type: TypePatientUpsert, Patient: store.PatientInfo{ID: "P1", Class: "calm", Age: 61}},
		{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"},
		{Type: TypeSubUpsert, Sub: testSubState()},
	}
	for i := 0; i < 6; i++ {
		recs = append(recs, Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(float64(4*i), 4)})
	}
	return append(recs,
		Record{Type: TypeSessionAnchor, PatientID: "P1", SessionID: "S1", Samples: 480, AnchorT: 24, AnchorPos: []float64{1.5}},
		Record{Type: TypeSessionMigrate, PatientID: "P1", SessionID: "S1", Target: "http://b", Phase: MigratePrepare})
}

// TestRetiredIndexRecordRecovers: a log holding the retired type-8
// record (patient-upsert, index-config, stream-open, …) recovers
// exactly what the same log without it does — in particular it is not
// cut off at that record — and goes on taking appends and snapshots.
func TestRetiredIndexRecordRecovers(t *testing.T) {
	withIndex, without := t.TempDir(), t.TempDir()
	recs := sessionRecords()
	writeSegmentFile(t, withIndex, 1, recs, 1)
	writeSegmentFile(t, without, 1, recs, -1)

	l, res := openAndCompare(t, withIndex, without)
	if want := uint64(len(recs) + 1); res.RecordsReplayed != want || l.NextLSN() != want+1 {
		t.Fatalf("replayed %d records, next LSN %d; want %d and %d", res.RecordsReplayed, l.NextLSN(), want, want+1)
	}
	if res.DB.NumVertices() != 24 {
		t.Fatalf("recovered %d vertices, want 24", res.DB.NumVertices())
	}
	more := mkVerts(24, 4)
	if err := l.Append(Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: more}); err != nil {
		t.Fatal(err)
	}
	if err := res.DB.Patient("P1").StreamBySession("S1").Append(more...); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Snapshot(res.DB, res.Sessions, res.Subscriptions, res.Migrations...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, res, err := Open(Options{Dir: withIndex}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if res.DB.NumVertices() != 28 || len(res.Sessions) != 1 || len(res.Migrations) != 1 {
		t.Fatalf("after append + snapshot: %d vertices, %d sessions, %d migrations", res.DB.NumVertices(), len(res.Sessions), len(res.Migrations))
	}
}

// TestRetiredIndexSnapshotRecovers: a snapshot with the reserved byte
// set, plus a log tail, recovers exactly what the same files without
// the index section do.
func TestRetiredIndexSnapshotRecovers(t *testing.T) {
	withIndex, without := t.TempDir(), t.TempDir()
	db := store.NewDB()
	p, err := db.AddPatient(store.PatientInfo{ID: "P1", Class: "calm", Age: 61})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddStream("S1").Append(mkVerts(0, 8)...); err != nil {
		t.Fatal(err)
	}
	const snapLSN = 12
	plain := filepath.Join(without, snapshotName(snapLSN))
	err = writeSnapshotFile(plain, snapLSN, db,
		[]SessionState{{PatientID: "P1", SessionID: "S1", Samples: 240, LastT: 7.4, LastPos: []float64{3.6}}},
		[]SubState{*testSubState()},
		[]MigrationState{{SessionID: "S0", PatientID: "P1", Target: "http://b", Epoch: 2, Phase: MigrateCommit}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(withIndex, snapshotName(snapLSN)), withRetiredIndexSection(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := []Record{
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(8, 4)},
		{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(12, 4)},
	}
	writeSegmentFile(t, withIndex, snapLSN, tail, -1)
	writeSegmentFile(t, without, snapLSN, tail, -1)

	l, res := openAndCompare(t, withIndex, without)
	defer l.Close()
	if res.SnapshotLSN != snapLSN || res.DB.NumVertices() != 16 || len(res.Subscriptions) != 1 {
		t.Fatalf("snapshot LSN %d, %d vertices, %d subscriptions", res.SnapshotLSN, res.DB.NumVertices(), len(res.Subscriptions))
	}
}
