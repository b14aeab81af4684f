package wal

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenDir is a data dir an earlier build wrote, kept as bytes. Its
// snapshot (LSN 0x28) holds three open sessions with anchors (one of 64
// dimensions), two subscriptions (one with cursors and undelivered
// events), a prepared and a committed migration, a 64-dimension stream,
// a patient with no stream, and an empty stream whose vertex block
// still says 3 dimensions: the block Stream.Append left behind when it
// refused a 3-D first vertex with a NaN time. Its one log segment holds
// every live record type and the retired type 8. want.json is what Open
// recovered from it then.
const goldenDir = "testdata/golden"

// goldenRecovery opens a copy of dir and returns the recovered state as
// indented JSON: what want.json holds.
func goldenRecovery(t *testing.T, dir string) []byte {
	t.Helper()
	work := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "want.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, res, err := Open(Options{Dir: work}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var db bytes.Buffer
	if err := res.DB.WriteBinary(&db); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(struct {
		SnapshotLSN, RecordsReplayed, RecordsTruncated, NextLSN uint64
		Recovered                                               recovered
	}{res.SnapshotLSN, res.RecordsReplayed, res.RecordsTruncated, l.NextLSN(),
		recovered{db.Bytes(), res.Sessions, res.Subscriptions, res.SubOps, res.Migrations}}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenDataDirOpensWhole: Open recovers from the golden data dir
// exactly the database, sessions, subscriptions and migrations it did
// when the dir was written, and today's writers re-encode its snapshot
// and every record to the bytes on disk.
func TestGoldenDataDirOpensWhole(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenRecovery(t, goldenDir); !bytes.Equal(got, want) {
		t.Errorf("recovered state differs from want.json:\n%s", got)
	}

	snaps, err := filepath.Glob(filepath.Join(goldenDir, "snap-*.db"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("golden snapshots %v, %v", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	sf, err := readSnapshotFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(t.TempDir(), "again.db")
	if err := writeSnapshotFile(again, sf.LSN, sf.DB, sf.Sessions, sf.Subs, sf.Migrations); err != nil {
		t.Fatal(err)
	}
	if rewritten, err := os.ReadFile(again); err != nil || !bytes.Equal(rewritten, raw) {
		t.Errorf("snapshot re-encodes to other bytes (%v):\n got %x\nwant %x", err, rewritten, raw)
	}

	segs, err := filepath.Glob(filepath.Join(goldenDir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("golden segments %v, %v", segs, err)
	}
	raw, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	types := map[Type]bool{}
	r := bytes.NewReader(raw[segHdrLen:])
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		types[rec.Type] = true
		enc := encodePayload(rec)
		if rec.Type == typeRetiredIndex {
			enc = retiredIndexPayload(rec.LSN)
		}
		if !bytes.Equal(enc, payload) {
			t.Errorf("%s record %d re-encodes to other bytes:\n got %x\nwant %x", rec.Type, rec.LSN, enc, payload)
		}
	}
	for typ := TypePatientUpsert; typ <= TypeSessionMigrate; typ++ {
		if !types[typ] {
			t.Errorf("golden segment holds no %s record", typ)
		}
	}
}
