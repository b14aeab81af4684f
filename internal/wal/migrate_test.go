package wal

import (
	"reflect"
	"testing"

	"stsmatch/internal/store"
)

func openSessions(res *RecoveryResult) map[string]bool {
	open := make(map[string]bool, len(res.Sessions))
	for _, ss := range res.Sessions {
		open[ss.SessionID] = true
	}
	return open
}

// TestMigrationReplay: TypeSessionMigrate records replay into exactly
// the surviving migration states — a commit leaves a tombstone and
// closes the session, an abort erases the prepare, a bare prepare
// survives with its session still open (it resumes fenced), and a
// later TypeReplicaPromote sheds a committed tombstone because the
// session migrated back.
func TestMigrationReplay(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	appendSession(t, l, "P2", "S2", mkVerts(0, 8))
	appendSession(t, l, "P3", "S3", mkVerts(0, 8))
	mig := func(sid, pid, target string, epoch uint64, phase uint8) {
		t.Helper()
		if err := l.Append(Record{Type: TypeSessionMigrate,
			PatientID: pid, SessionID: sid, Target: target, Epoch: epoch, Phase: phase}); err != nil {
			t.Fatal(err)
		}
	}
	// S1 migrates away; S2's cutover fails and rolls back; S3 goes
	// down mid-cutover with only the prepare on disk.
	mig("S1", "P1", "http://b", 0, MigratePrepare)
	mig("S1", "P1", "http://b", 7, MigrateCommit)
	mig("S2", "P2", "http://c", 0, MigratePrepare)
	mig("S2", "P2", "http://c", 0, MigrateAbort)
	mig("S3", "P3", "http://b", 0, MigratePrepare)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []MigrationState{
		{SessionID: "S1", PatientID: "P1", Target: "http://b", Epoch: 7, Phase: MigrateCommit},
		{SessionID: "S3", PatientID: "P3", Target: "http://b", Phase: MigratePrepare},
	}
	if !reflect.DeepEqual(res.Replay.Migrations(), want) {
		t.Fatalf("migrations after replay:\n got %+v\nwant %+v", res.Replay.Migrations(), want)
	}
	open := openSessions(res)
	if open["S1"] {
		t.Error("committed-away session S1 still open after replay")
	}
	if !open["S2"] || !open["S3"] {
		t.Errorf("sessions S2 (aborted) and S3 (prepared) must stay open, got %v", open)
	}

	// S1 migrates back: the promote both reopens the session and sheds
	// the tombstone, so stale-route 410s stop once this node owns it.
	if err := l.Append(Record{Type: TypeReplicaPromote, PatientID: "P1", SessionID: "S1",
		Samples: 240, AnchorT: 7.4, AnchorPos: []float64{3.6}, Epoch: 9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Replay.Migrations(), want[1:]) {
		t.Fatalf("migrations after migrate-back:\n got %+v\nwant %+v", res.Replay.Migrations(), want[1:])
	}
	if !openSessions(res)["S1"] {
		t.Error("migrated-back session S1 not reopened by promote replay")
	}
}

// TestSnapshotCarriesMigrations: the snapshot's migration section
// round-trips tombstones and in-flight prepares through compaction,
// and WAL-tail records replay on top of the snapshot-seeded state.
func TestSnapshotCarriesMigrations(t *testing.T) {
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
	if err := p.AddStream("S1").Append(mkVerts(0, 8)...); err != nil {
		t.Fatal(err)
	}
	want := []MigrationState{
		{SessionID: "S1", PatientID: "P1", Target: "http://b", Phase: MigratePrepare},
		{SessionID: "S9", PatientID: "P9", Target: "http://c", Epoch: 4, Phase: MigrateCommit},
	}
	sessions := []SessionState{{PatientID: "P1", SessionID: "S1", Samples: 240, LastT: 7.4, LastPos: []float64{3.6}}}
	if _, err := l.Snapshot(db, sessions, nil, want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Replay.Migrations(), want) {
		t.Fatalf("migrations from snapshot:\n got %+v\nwant %+v", res.Replay.Migrations(), want)
	}

	// The tail replays over the snapshot-seeded state: the abort
	// erases the in-flight prepare, the tombstone stays.
	if err := l.Append(Record{Type: TypeSessionMigrate,
		PatientID: "P1", SessionID: "S1", Target: "http://b", Phase: MigrateAbort}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Replay.Migrations(), want[1:]) {
		t.Fatalf("migrations after tail abort:\n got %+v\nwant %+v", res.Replay.Migrations(), want[1:])
	}
}

// TestCloseShedsTombstone: a session handed over and then closed by its
// new owner (the close this node journals as that owner's follower)
// leaves no tombstone after replay, so the node's inventory stops
// claiming the session for that owner.
func TestCloseShedsTombstone(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSession(t, l, "P1", "S1", mkVerts(0, 8))
	for _, rec := range []Record{
		{Type: TypeSessionMigrate, PatientID: "P1", SessionID: "S1", Target: "http://b", Epoch: 2, Phase: MigrateCommit},
		{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"},
		{Type: TypeSessionClose, SessionID: "S1"},
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
	if len(res.Replay.Migrations()) != 0 || openSessions(res)["S1"] {
		t.Fatalf("after the owner's close: migrations %+v, open %v; want neither", res.Replay.Migrations(), openSessions(res))
	}
}
