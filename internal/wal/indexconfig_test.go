package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stsmatch/internal/store"
)

func testIndexConfig() IndexConfig {
	return IndexConfig{MinSegments: 9, MaxSegments: 24, AmpBucket: 4, DurBucket: 2.5}
}

func TestIndexConfigRecordRoundTrip(t *testing.T) {
	rec := Record{Type: TypeIndexConfig, LSN: 42, Index: testIndexConfig()}
	got, err := decodePayload(encodePayload(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeIndexConfig || got.LSN != 42 || got.Index != rec.Index {
		t.Fatalf("round trip changed record: %+v -> %+v", rec, got)
	}
	if got.Type.String() != "index-config" {
		t.Errorf("Type.String() = %q", got.Type.String())
	}
}

// TestIndexConfigRecovered: an index-config record journaled before a
// crash comes back through RecoveryResult.IndexConfig, and the latest
// record wins.
func TestIndexConfigRecovered(t *testing.T) {
	dir := t.TempDir()
	l, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexConfig != nil {
		t.Fatalf("fresh dir recovered index config %+v", res.IndexConfig)
	}
	old := IndexConfig{MinSegments: 5, MaxSegments: 6, AmpBucket: 1, DurBucket: 1}
	want := testIndexConfig()
	if err := l.Append(Record{Type: TypeIndexConfig, Index: old}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeIndexConfig, Index: want}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res2.IndexConfig == nil {
		t.Fatal("index config not recovered from records")
	}
	if *res2.IndexConfig != want {
		t.Fatalf("recovered config %+v, want %+v (last record wins)", *res2.IndexConfig, want)
	}
}

// TestIndexConfigSurvivesCompaction: once SetIndexConfig stamps the
// log, a snapshot embeds the config, so recovery finds it even after
// compaction has deleted the segment holding the TypeIndexConfig
// record.
func TestIndexConfigSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments + KeepSnapshots 1 so compaction actually deletes
	// the early segment with the config record.
	opts := Options{Dir: dir, SegmentMaxBytes: 256, KeepSnapshots: 1}
	l, _, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := testIndexConfig()
	if err := l.Append(Record{Type: TypeIndexConfig, Index: want}); err != nil {
		t.Fatal(err)
	}
	l.SetIndexConfig(&want)

	db := store.NewDB()
	p, err := db.AddPatient(store.PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S1")
	for i := 0; i < 8; i++ {
		vs := mkVerts(float64(i*4), 4)
		if err := st.Append(vs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: vs}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Snapshot(db, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A second snapshot pushes the retention floor past the first
	// segment.
	if _, err := l.Snapshot(db, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res.IndexConfig == nil {
		t.Fatal("index config lost across snapshot compaction")
	}
	if *res.IndexConfig != want {
		t.Fatalf("recovered config %+v, want %+v", *res.IndexConfig, want)
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
// fills all four sections is refused with an error — no section reader
// panics, loops, or accepts a short file.
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
	ic := testIndexConfig()
	full := filepath.Join(dir, "full.db")
	err = writeSnapshotFile(full, 7, db,
		[]SessionState{{PatientID: "P1", SessionID: "S1", Samples: 240, LastT: 7.4, LastPos: []float64{3.6}}},
		&ic, []SubState{*testSubState()},
		[]MigrationState{{SessionID: "S1", PatientID: "P1", Target: "http://b", Epoch: 2, Phase: MigrateCommit}})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := readSnapshotFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if sf.LSN != 7 || len(sf.Sessions) != 1 || sf.IndexConf == nil || len(sf.Subs) != 1 || len(sf.Migrations) != 1 {
		t.Fatalf("full snapshot decoded to %+v", sf)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.db")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshotFile(cut); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes was accepted", n, len(raw))
		}
	}
}

// TestSnapshotEmbedsIndexConfig: writer stamps the configured index
// into the snapshot and the reader returns it.
func TestSnapshotEmbedsIndexConfig(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := testIndexConfig()
	l.SetIndexConfig(&want)

	db := store.NewDB()
	lsn, err := l.Snapshot(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := readSnapshotFile(filepath.Join(dir, snapshotName(lsn)))
	if err != nil {
		t.Fatal(err)
	}
	if sf.LSN != lsn {
		t.Fatalf("snapshot lsn %d, want %d", sf.LSN, lsn)
	}
	if sf.IndexConf == nil || *sf.IndexConf != want {
		t.Fatalf("snapshot index config = %+v, want %+v", sf.IndexConf, want)
	}
}
