package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var errInjected = errors.New("injected I/O error")

// failDirSync makes every directory fsync fail until the returned
// function is called (or the test ends).
func failDirSync(t *testing.T) (restore func()) {
	t.Helper()
	restore = func() { fsyncDir = (*os.File).Sync }
	fsyncDir = func(*os.File) error { return errInjected }
	t.Cleanup(restore)
	return restore
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDirSyncFailureFailsTheLog: a directory fsync that fails is the
// log's sticky error, wherever it makes a file's name durable. Open of a
// fresh directory returns it; a rotation fails the log with it; a
// snapshot whose rename it could not make durable returns it and
// compacts nothing, so the older snapshots and every segment stay, and
// the directory reopens whole both with the new snapshot and without it
// (the rename a crash undid).
func TestDirSyncFailureFailsTheLog(t *testing.T) {
	restore := failDirSync(t)
	if _, _, err := Open(Options{Dir: t.TempDir()}, nil); !errors.Is(err, errInjected) {
		t.Fatalf("Open over a failing directory fsync: %v, want %v", err, errInjected)
	}
	restore()

	l, _, err := Open(Options{Dir: t.TempDir(), SegmentMaxBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	failDirSync(t)
	var appendErr error
	for i := 0; i < 100 && appendErr == nil; i++ {
		appendErr = l.Append(Record{Type: TypeVertexAppend, PatientID: "P", SessionID: "S", Vertices: mkVerts(float64(4*i), 4)})
	}
	if !errors.Is(appendErr, errInjected) || !errors.Is(l.Err(), errInjected) {
		t.Fatalf("rotation over a failing directory fsync: append %v, Err %v; want %v", appendErr, l.Err(), errInjected)
	}
	l.Close() //nolint:errcheck // the sticky error again
	restore()

	// Three sessions, a snapshot after each of the first two.
	dir := t.TempDir()
	sids := []string{"S0", "S1", "S2"}
	var res *RecoveryResult
	for i, sid := range sids {
		if l, _, err = Open(Options{Dir: dir}, nil); err != nil {
			t.Fatal(err)
		}
		appendSession(t, l, "P"+sid, sid, mkVerts(float64(100*i), 8))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, res, err = Open(Options{Dir: dir}, nil); err != nil {
			t.Fatal(err)
		}
		if i == len(sids)-1 {
			defer l.Close()
			break
		}
		if _, err := l.Snapshot(res.DB, res.Sessions, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	before := dirNames(t, dir)
	restore = failDirSync(t)
	lsn, err := l.Snapshot(res.DB, res.Sessions, nil)
	if !errors.Is(err, errInjected) || !errors.Is(l.Err(), errInjected) {
		t.Fatalf("Snapshot over a failing directory fsync: %v, Err %v; want %v", err, l.Err(), errInjected)
	}
	if err := l.Append(Record{Type: TypeSessionClose, SessionID: "S0"}); !errors.Is(err, errInjected) {
		t.Errorf("append after the failed snapshot: %v, want the sticky %v", err, errInjected)
	}
	restore()
	after := dirNames(t, dir)
	for _, name := range before {
		if !slices.Contains(after, name) {
			t.Errorf("the failed snapshot compacted %s away; the directory went from %v to %v", name, before, after)
		}
	}
	newest, err := listSeq(dir, "snap-", ".db")
	if err != nil || len(newest) != 3 || lsn != 0 {
		t.Fatalf("snapshots %v (%v), LSN %d; want the two old ones and the renamed new one, LSN 0", newest, err, lsn)
	}
	l.Close() //nolint:errcheck // the sticky error again

	whole := func(label string) {
		t.Helper()
		l, res, err := Open(Options{Dir: dir}, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer l.Close()
		if got := res.DB.NumVertices(); got != 8*len(sids) || len(res.Sessions) != len(sids) {
			t.Errorf("%s: recovered %d vertices in %d sessions, want %d in %d", label, got, len(res.Sessions), 8*len(sids), len(sids))
		}
	}
	whole("reopened")
	if err := os.Remove(filepath.Join(dir, snapshotName(newest[2]))); err != nil {
		t.Fatal(err)
	}
	whole("reopened without the new snapshot")
}

// TestOpenFailsOnUncutTear: Open resumes appending at a tear only once
// the tear is cut. A failed truncation of the torn tail, or a failed
// removal of a segment past it, fails Open and leaves the directory for
// the next Open to cut, which recovers every record before the tear.
func TestOpenFailsOnUncutTear(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentMaxBytes: 512}
	l, _, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}

	truncate = func(string, int64) error { return errInjected }
	t.Cleanup(func() { truncate = os.Truncate })
	if _, _, err := Open(opts, nil); !errors.Is(err, errInjected) {
		t.Fatalf("Open over a failing truncation: %v, want %v", err, errInjected)
	}
	if fi, err := os.Stat(segs[len(segs)-1]); err != nil || fi.Size() != torn.Size() {
		t.Fatalf("the failed Open wrote to the torn segment: %v, %v", fi, err)
	}
	truncate = os.Truncate
	l, res, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsTruncated != 1 || res.DB.NumVertices() != 8 {
		t.Errorf("recovered %d vertices, truncated %d records; want 8 and 1", res.DB.NumVertices(), res.RecordsTruncated)
	}

	// A record torn inside the first of several segments.
	appendSession(t, l, "P2", "S2", mkVerts(100, 40))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs = segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("fixture: %d segments, want several", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // the last record's checksum no longer holds
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	remove = func(string) error { return errInjected }
	t.Cleanup(func() { remove = os.Remove })
	if _, _, err := Open(opts, nil); !errors.Is(err, errInjected) {
		t.Fatalf("Open over a failing removal: %v, want %v", err, errInjected)
	}
	if got := segFiles(t, dir); !slices.Equal(got, segs) {
		t.Fatalf("the failed Open changed the segments: %v, want %v", got, segs)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != int64(len(raw)) {
		t.Fatalf("the failed Open cut the torn segment: %v, %v", fi, err)
	}
	remove = os.Remove
	l, res, err = Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := segFiles(t, dir); len(got) != 1 || res.RecordsTruncated != 1 || res.DB.NumVertices() < 8 {
		t.Errorf("after the cut: segments %v, %d records truncated, %d vertices", got, res.RecordsTruncated, res.DB.NumVertices())
	}
}
