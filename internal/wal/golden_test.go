package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stsmatch/internal/binfmt"
)

// goldenDir is a data dir kept as bytes, at snapshot version 6 and
// segment version 3. Its snapshot (LSN 0x28) holds three open sessions
// with anchors (one of 64 dimensions), epochs and followers (none, one,
// two), two subscriptions (one with cursors and undelivered events), a
// prepared and a committed migration, a 64-dimension stream, a patient
// with no stream, and an empty stream whose vertex block still says 3
// dimensions: the block Stream.Append left behind when it refused a 3-D
// first vertex with a NaN time. Its one log segment holds every
// journaled record type, a promote with a follower among them, and
// nothing else. want.json is what Open recovers from it.
//
// The dir is goldenV5Dir carried to today's versions: the
// subscriptions' per-evaluation k removed from the snapshot and the
// segment's subscription record, every other byte re-encoded as it was.
const goldenDir = "testdata/golden"

// journaled are the record types a node writes to its own log, which
// hold every type a link ships. The traffic test in internal/shard
// pins the same set.
var journaled = []Type{
	TypePatientUpsert, TypeStreamOpen, TypeVertexAppend, TypeSessionClose, TypeSessionAnchor,
	TypeReplicaPromote, TypeSubUpsert, TypeSubDelete, TypeSubAck, TypeSessionMigrate,
}

// goldenV5Dir is the data dir goldenDir was carried over from, as an
// earlier build wrote it at snapshot version 5 and segment version 2;
// its want.json is what that build recovered.
const goldenV5Dir = "testdata/golden-v5"

// dirFiles reads every file of dir but want.json.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == "want.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// goldenCopy copies dir, want.json aside, into a fresh temp dir.
func goldenCopy(t *testing.T, dir string) string {
	t.Helper()
	work := t.TempDir()
	for name, raw := range dirFiles(t, dir) {
		if err := os.WriteFile(filepath.Join(work, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return work
}

// recovered is everything a server rebuilds itself from.
type recovered struct {
	DB         []byte
	Sessions   []SessionState
	Subs       []SubState
	SubOps     []SubReplayOp
	Migrations []MigrationState
}

// goldenRecovery opens a copy of dir and returns the recovered state as
// indented JSON: what want.json holds.
func goldenRecovery(t *testing.T, dir string) []byte {
	t.Helper()
	l, res, err := Open(Options{Dir: goldenCopy(t, dir)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.mu.Lock()
	next := l.nextLSN
	l.mu.Unlock()
	var db bytes.Buffer
	if err := res.DB.WriteBinary(&db); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(struct {
		SnapshotLSN, RecordsReplayed, RecordsTruncated, NextLSN uint64
		Recovered                                               recovered
	}{res.SnapshotLSN, res.RecordsReplayed, res.RecordsTruncated, next,
		recovered{db.Bytes(), res.Sessions, res.Subscriptions, res.SubOps, res.Replay.Migrations()}}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenDataDirOpensWhole: Open recovers from the golden data dir
// exactly the database, sessions, subscriptions and migrations
// want.json holds, today's writers re-encode its snapshot and every
// record to the bytes on disk, and its segment holds every journaled
// record type and no other.
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
		if enc := encodePayload(rec); !bytes.Equal(enc, payload) {
			t.Errorf("%s record %d re-encodes to other bytes:\n got %x\nwant %x", rec.Type, rec.LSN, enc, payload)
		}
	}
	for _, typ := range journaled {
		if !types[typ] {
			t.Errorf("golden segment holds no %s record", typ)
		}
		delete(types, typ)
	}
	for typ := range types {
		t.Errorf("golden segment holds a %s record, which no node journals", typ)
	}
}

// TestGoldenV5DataDirRefused: a data dir an earlier build wrote at
// snapshot version 5 fails Open with binfmt.ErrVersion, every file left
// byte for byte as it was — refused, never read as something it is not
// and never recovered from an older state beside it.
func TestGoldenV5DataDirRefused(t *testing.T) {
	work := goldenCopy(t, goldenV5Dir)
	before := dirFiles(t, work)
	if l, _, err := Open(Options{Dir: work}, nil); !errors.Is(err, binfmt.ErrVersion) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open = %v, want binfmt.ErrVersion", err)
	}
	if after := dirFiles(t, work); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused Open changed the data dir: %d files, were %d", len(after), len(before))
	}
}
