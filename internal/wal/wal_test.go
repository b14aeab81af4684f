package wal

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// mkVerts builds n valid vertices starting at time t0 spaced 1 s,
// cycling the regular states.
func mkVerts(t0 float64, n int) plr.Sequence {
	states := []plr.State{plr.EX, plr.EOE, plr.IN}
	seq := make(plr.Sequence, n)
	for i := range seq {
		seq[i] = plr.Vertex{
			T:     t0 + float64(i),
			Pos:   []float64{float64(i) * 0.5},
			State: states[i%len(states)],
		}
	}
	return seq
}

// appendSession writes the standard record sequence of one ingesting
// session: patient, stream, vertex batches, anchors.
func appendSession(t *testing.T, l *Log, pid, sid string, verts plr.Sequence) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(Record{Type: TypePatientUpsert, Patient: store.PatientInfo{ID: pid, Class: "calm", Age: 61}}))
	must(l.Append(Record{Type: TypeStreamOpen, PatientID: pid, SessionID: sid}))
	for i := 0; i < len(verts); i += 4 {
		end := min(i+4, len(verts))
		must(l.Append(Record{Type: TypeVertexAppend, PatientID: pid, SessionID: sid, Vertices: verts[i:end]}))
		last := verts[end-1]
		must(l.Append(Record{
			Type: TypeSessionAnchor, PatientID: pid, SessionID: sid,
			Samples: uint64(end * 30), AnchorT: last.T + 0.4, AnchorPos: []float64{last.Pos[0] + 0.1},
		}))
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fresh {
		t.Error("expected fresh directory")
	}
	verts := mkVerts(0, 12)
	appendSession(t, l, "P1", "S1", verts)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res2.Fresh {
		t.Error("second open should not be fresh")
	}
	if res2.RecordsTruncated != 0 {
		t.Errorf("truncated %d records on a clean log", res2.RecordsTruncated)
	}
	if res2.RecordsReplayed == 0 {
		t.Error("no records replayed")
	}
	p := res2.DB.Patient("P1")
	if p == nil {
		t.Fatal("patient not recovered")
	}
	if p.Info.Class != "calm" || p.Info.Age != 61 {
		t.Errorf("patient info not recovered: %+v", p.Info)
	}
	st := p.StreamBySession("S1")
	if st == nil {
		t.Fatal("stream not recovered")
	}
	if st.Len() != len(verts) {
		t.Errorf("recovered %d vertices, want %d", st.Len(), len(verts))
	}
	if len(res2.Sessions) != 1 {
		t.Fatalf("recovered %d open sessions, want 1", len(res2.Sessions))
	}
	ss := res2.Sessions[0]
	if ss.PatientID != "P1" || ss.SessionID != "S1" {
		t.Errorf("session identity = %+v", ss)
	}
	if ss.LastT != verts[len(verts)-1].T+0.4 {
		t.Errorf("anchor LastT = %v", ss.LastT)
	}
	if ss.Samples != uint64(len(verts)*30) {
		t.Errorf("anchor Samples = %d", ss.Samples)
	}

	// The recovered log keeps accepting appends with contiguous LSNs.
	if err := l2.Append(Record{Type: TypeSessionClose, SessionID: "S1"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCloseRemovesSession(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 6))
	if err := l.Append(Record{Type: TypeSessionClose, SessionID: "S1"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 0 {
		t.Errorf("closed session resurrected: %+v", res.Sessions)
	}
	if res.DB.NumVertices() != 6 {
		t.Errorf("stream history lost on close: %d vertices", res.DB.NumVertices())
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: a partial frame at the end of the segment.
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("recovery must tolerate a torn tail: %v", err)
	}
	if res.RecordsTruncated != 1 {
		t.Errorf("RecordsTruncated = %d, want 1", res.RecordsTruncated)
	}
	if res.BytesTruncated != 3 {
		t.Errorf("BytesTruncated = %d, want 3", res.BytesTruncated)
	}
	if got := res.DB.NumVertices(); got != 8 {
		t.Errorf("recovered %d vertices, want all 8", got)
	}
	// The tear is gone: appends resume and the next recovery is clean.
	if err := l2.Append(Record{Type: TypeSessionClose, SessionID: "S1"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, res3, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.RecordsTruncated != 0 {
		t.Errorf("second recovery still truncating: %d", res3.RecordsTruncated)
	}
	if len(res3.Sessions) != 0 {
		t.Error("post-tear append lost")
	}
}

// TestRecoveryStopsAtNonFiniteVertex: the log's vertex encoding carries
// any float64 bit pattern, NaN included (JSON over HTTP cannot). Replay
// does not rebuild a stream with a NaN in it: the stream refuses the
// vertex, the record counts as the log's damaged tail and is cut off
// with what follows, and everything before it is recovered.
func TestRecoveryStopsAtNonFiniteVertex(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	bad := mkVerts(8, 3)
	bad[1].Pos[0] = math.NaN()
	for _, vs := range []plr.Sequence{bad, mkVerts(11, 2)} {
		if err := l.Append(Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: vs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("recovery must survive a non-finite vertex: %v", err)
	}
	defer l2.Close()
	if res.RecordsTruncated != 1 {
		t.Errorf("RecordsTruncated = %d, want 1", res.RecordsTruncated)
	}
	st := res.DB.Patient("P1").StreamBySession("S1")
	// The record's finite prefix landed before the refusal.
	if st.Len() != 9 {
		t.Errorf("recovered %d vertices, want the 8 before the record and its 1 finite vertex", st.Len())
	}
	for _, v := range st.Seq() {
		if math.IsNaN(v.Pos[0]) {
			t.Fatalf("recovered stream holds %+v", v)
		}
	}
}

// TestRecoveryStopsAtMismatchedDimension: a logged batch of another
// dimensionality than its stream (a store that accepted one could write
// it) is the damaged tail, as a non-finite vertex is: the log is cut at
// the record, and what recovery serves holds one dimensionality per
// stream.
func TestRecoveryStopsAtMismatchedDimension(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	good, bad := mkVerts(0, 1), mkVerts(8, 3)
	for i := range bad {
		bad[i].Pos = nil
	}
	for _, vs := range []plr.Sequence{bad, mkVerts(11, 2)} {
		if err := l.Append(Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: vs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("recovery must survive a vertex of another dimensionality: %v", err)
	}
	defer l2.Close()
	if res.RecordsTruncated != 1 {
		t.Errorf("RecordsTruncated = %d, want 1", res.RecordsTruncated)
	}
	st := res.DB.Patient("P1").StreamBySession("S1")
	if st.Len() != 8 {
		t.Errorf("recovered %d vertices, want the 8 before the record", st.Len())
	}
	for i, v := range st.Seq() {
		if len(v.Pos) != len(good[0].Pos) {
			t.Fatalf("recovered vertex %d has %d dimensions, the stream %d", i, len(v.Pos), len(good[0].Pos))
		}
	}
}

func TestRecoveryStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the record stream: everything
	// from that record on is discarded, everything before survives.
	segs := segFiles(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	mid := segHdrLen + (len(data)-segHdrLen)/2
	data[mid] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("recovery must tolerate mid-log corruption: %v", err)
	}
	if res.RecordsTruncated != 1 {
		t.Errorf("RecordsTruncated = %d, want 1", res.RecordsTruncated)
	}
	if res.BytesTruncated == 0 {
		t.Error("no bytes truncated")
	}
	got := res.DB.NumVertices()
	if got == 0 || got >= 8 {
		t.Errorf("recovered %d vertices, want a proper prefix of 8", got)
	}
}

// TestRecoveryReplacesTornHeaderSegment models a crash between
// segment creation and header fsync: the tail segment's header is
// torn, so it cannot be resumed (appends at offset 0 would be
// headerless and unreadable). Recovery must replace it with a fresh,
// properly-headered segment, and everything appended afterwards must
// survive the next recovery.
func TestRecoveryReplacesTornHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 24))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	// Tear the newest segment's header down to a partial write.
	if err := os.Truncate(segs[len(segs)-1], int64(segHdrLen-9)); err != nil {
		t.Fatal(err)
	}

	l2, res, err := Open(Options{Dir: dir, SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatalf("recovery must tolerate a torn segment header: %v", err)
	}
	if res.RecordsTruncated != 1 {
		t.Errorf("RecordsTruncated = %d, want 1", res.RecordsTruncated)
	}
	recovered := res.DB.NumVertices()
	if recovered == 0 {
		t.Fatal("earlier segments lost")
	}
	// Writes after the torn-header recovery must be durable: the
	// replacement segment needs a valid header or the next recovery
	// truncates everything at offset 0.
	if err := l2.Append(Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(1000, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	_, res3, err := Open(Options{Dir: dir, SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.RecordsTruncated != 0 {
		t.Errorf("recovery after torn-header replacement truncated %d records", res3.RecordsTruncated)
	}
	if got := res3.DB.NumVertices(); got != recovered+2 {
		t.Errorf("post-replacement appends lost: %d vertices, want %d", got, recovered+2)
	}
}

// TestUnsupportedSegmentVersionFailsOpen: a version this binary does
// not understand is not a torn record — Open must fail and leave the
// segment untouched for a binary that can read it.
func TestUnsupportedSegmentVersionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segFiles(t, dir)[0]
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{99, 0}, 4); err != nil { // version field
		t.Fatal(err)
	}
	f.Close()

	if _, _, err := Open(Options{Dir: dir}, nil); err == nil {
		t.Fatal("Open accepted an unsupported segment version")
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("failed Open modified the segment: %d bytes, was %d", len(after), len(before))
	}

	// Restoring the version makes the directory fully recoverable —
	// nothing was truncated or deleted.
	f, err = os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{segVersion, 0}, 4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsTruncated != 0 || res.DB.NumVertices() != 8 {
		t.Errorf("restored segment not fully recovered: truncated=%d vertices=%d",
			res.RecordsTruncated, res.DB.NumVertices())
	}
}

// TestFallbackSnapshotReplaysContiguousTail pins the KeepSnapshots
// contract: when the newest snapshot is unreadable, recovery falls
// back to the previous one, and compaction must have retained every
// segment that fallback needs — no silent hole between the older
// snapshot and the surviving WAL tail.
func TestFallbackSnapshotReplaysContiguousTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentMaxBytes: 256, KeepSnapshots: 2}
	reopen := func(l *Log) (*Log, *RecoveryResult) {
		t.Helper()
		if l != nil {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		l2, res, err := Open(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l2, res
	}

	l, _, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	l, res := reopen(l)
	if _, err := l.Snapshot(res.DB, res.Sessions, nil); err != nil { // snapshot A
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(100, 8)) // rotates several segments
	l, res = reopen(l)
	if _, err := l.Snapshot(res.DB, res.Sessions, nil); err != nil { // snapshot B compacts
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(200, 4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot; recovery must fall back to A and
	// still rebuild the full 20-vertex state from retained segments.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots on disk, want 2", len(snaps))
	}
	fi, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snaps[len(snaps)-1], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	_, res2, err := Open(opts, nil)
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	if got := res2.DB.NumVertices(); got != 20 {
		t.Errorf("fallback recovered %d vertices, want 20", got)
	}
	if len(res2.Sessions) != 1 {
		t.Errorf("fallback lost the open session: %+v", res2.Sessions)
	}
}

func TestSnapshotCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotations.
	l, _, err := Open(Options{Dir: dir, SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	verts := mkVerts(0, 60)
	appendSession(t, l, "P1", "S1", verts)
	if len(segFiles(t, dir)) < 3 {
		t.Fatalf("expected several segments, got %d", len(segFiles(t, dir)))
	}

	// Rebuild the DB the same way recovery would, then snapshot it.
	l.Close()
	l, res, err := Open(Options{Dir: dir, SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Snapshot(res.DB, res.Sessions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("snapshot LSN is 0")
	}
	if got := len(segFiles(t, dir)); got != 1 {
		t.Errorf("%d segments survive compaction, want 1 (the active one)", got)
	}
	l.Close()

	// Recovery now starts from the snapshot and replays nothing.
	_, res2, err := Open(Options{Dir: dir, SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SnapshotLSN != lsn {
		t.Errorf("SnapshotLSN = %d, want %d", res2.SnapshotLSN, lsn)
	}
	if res2.RecordsReplayed != 0 {
		t.Errorf("replayed %d records past a fresh snapshot", res2.RecordsReplayed)
	}
	if res2.DB.NumVertices() != len(verts) {
		t.Errorf("snapshot recovered %d vertices, want %d", res2.DB.NumVertices(), len(verts))
	}
	if len(res2.Sessions) != 1 {
		t.Errorf("snapshot lost the open session manifest: %+v", res2.Sessions)
	}
}

func TestSnapshotPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, KeepSnapshots: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	db := store.NewDB()
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Type: TypePatientUpsert, Patient: store.PatientInfo{ID: "P1"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Snapshot(db, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Errorf("%d snapshots kept, want 2", len(snaps))
	}
}

// TestSnapshotOtherVersionRefused: there is one snapshot format. A file
// stamped with any other version is refused by name, and a log whose
// newest snapshot is such a file fails Open — the segments below it
// were compacted away, so starting from an empty database would lose
// data silently.
func TestSnapshotOtherVersionRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, KeepSnapshots: 1, SegmentMaxBytes: 256}
	l, _, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 24)) // several 256-byte segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, res, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Snapshot(res.DB, nil, nil) // compacts the segments below it
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(lsn))
	if _, err := readSnapshotFile(path); err != nil {
		t.Fatalf("current-version snapshot unreadable: %v", err)
	}

	for _, version := range []uint16{1, 3, snapVersion + 1} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(raw[4:6], version)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = readSnapshotFile(path)
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Errorf("version %d: read error = %v, want unsupported snapshot version", version, err)
		}
		if l2, _, err := Open(opts, nil); err == nil {
			l2.Close()
			t.Errorf("version %d: Open started from an empty database over a refused snapshot", version)
		}
	}
}

// TestSnapshotTruncatedRefused: every proper prefix of a snapshot that
// fills all three sections is refused with an error — no section reader
// panics, loops, or accepts a short file. Once as the writer makes it
// (reserved byte 0) and once with the byte set and the four retired
// fields behind it, so the skip is cut short at every byte too.
func TestSnapshotTruncatedRefused(t *testing.T) {
	dir := t.TempDir()
	db := store.NewDB()
	p, err := db.AddPatient(store.PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddStream("S1").Append(mkVerts(0, 8)...); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.db")
	err = writeSnapshotFile(full, 7, db,
		[]SessionState{{PatientID: "P1", SessionID: "S1", Samples: 240, LastT: 7.4, LastPos: []float64{3.6}}},
		[]SubState{*testSubState()},
		[]MigrationState{{SessionID: "S1", PatientID: "P1", Target: "http://b", Epoch: 2, Phase: MigrateCommit}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.db")
	for name, file := range map[string][]byte{"reserved byte 0": raw, "reserved byte 1": withRetiredIndexSection(t, raw)} {
		if err := os.WriteFile(cut, file, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := readSnapshotFile(cut)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sf.LSN != 7 || len(sf.Sessions) != 1 || len(sf.Subs) != 1 || len(sf.Migrations) != 1 || sf.DB.NumVertices() != 8 {
			t.Fatalf("%s: full snapshot decoded to %+v", name, sf)
		}
		for n := 0; n < len(file); n++ {
			if err := os.WriteFile(cut, file[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readSnapshotFile(cut); err == nil {
				t.Fatalf("%s: snapshot truncated to %d of %d bytes was accepted", name, n, len(file))
			}
		}
	}
}

func TestFreshDirSeedsInitialSnapshot(t *testing.T) {
	dir := t.TempDir()
	initial := store.NewDB()
	p, err := initial.AddPatient(store.PatientInfo{ID: "HIST"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddStream("old").Append(mkVerts(0, 5)...); err != nil {
		t.Fatal(err)
	}

	l, res, err := Open(Options{Dir: dir}, initial)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fresh || res.DB != initial {
		t.Error("fresh open should adopt the initial database")
	}
	l.Close()

	// Restart without the preload: history must come back from disk.
	_, res2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fresh {
		t.Error("seeded directory reported fresh")
	}
	if res2.DB.NumVertices() != 5 {
		t.Errorf("preloaded history not durable: %d vertices", res2.DB.NumVertices())
	}
}

func TestRecordRoundTripAllTypes(t *testing.T) {
	recs := []Record{
		{Type: TypePatientUpsert, LSN: 1, Patient: store.PatientInfo{ID: "P", Class: "calm", TumorSite: "lung", Age: 70}},
		{Type: TypeStreamOpen, LSN: 2, PatientID: "P", SessionID: "S"},
		{Type: TypeVertexAppend, LSN: 3, PatientID: "P", SessionID: "S", Vertices: mkVerts(10, 3)},
		{Type: TypeSessionClose, LSN: 4, SessionID: "S"},
		{Type: TypeSessionAnchor, LSN: 5, PatientID: "P", SessionID: "S", Samples: 99, AnchorT: 12.5, AnchorPos: []float64{1, 2, 3}},
	}
	for _, rec := range recs {
		got, err := decodePayload(encodePayload(rec))
		if err != nil {
			t.Fatalf("%s: %v", rec.Type, err)
		}
		if got.Type != rec.Type || got.LSN != rec.LSN ||
			got.PatientID != rec.PatientID || got.SessionID != rec.SessionID ||
			got.Patient != rec.Patient || got.Samples != rec.Samples ||
			got.AnchorT != rec.AnchorT || len(got.AnchorPos) != len(rec.AnchorPos) ||
			len(got.Vertices) != len(rec.Vertices) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", rec.Type, got, rec)
		}
	}
}
