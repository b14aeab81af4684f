package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/store"
)

const (
	snapMagic = "STSS"
	// snapVersion is the one snapshot format: header, session manifest,
	// one reserved byte, standing subscriptions, session migrations,
	// database payload. Any other version is refused.
	snapVersion = 4
)

// SessionState is the durable part of one open ingestion session: the
// identifiers plus the raw-sample anchor the prediction path resumes
// from. The segmenter itself is re-primed from the recovered PLR tail.
type SessionState struct {
	PatientID string
	SessionID string
	Samples   uint64
	LastT     float64
	LastPos   []float64
}

// Snapshot serializes the database plus the open-session manifest to
// snap-<LSN>.db, then compacts: all but the newest keepSnapshots
// snapshots are deleted, along with every segment entirely below the
// oldest snapshot that remains (so each kept snapshot still has a
// contiguous WAL tail to replay).
//
// The caller must guarantee the database is quiescent for the duration
// (the server holds its session lock), so the snapshot is exactly the
// state produced by every record below the returned LSN.
func (l *Log) Snapshot(db *store.DB, sessions []SessionState, subs []SubState, migrations ...MigrationState) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	start := time.Now()
	lsn := l.nextLSN
	final := filepath.Join(l.opts.Dir, snapshotName(lsn))
	tmp := final + ".tmp"
	if err := writeSnapshotFile(tmp, lsn, db, sessions, subs, migrations); err != nil {
		os.Remove(tmp) //nolint:errcheck
		l.fail(err)
		return 0, l.err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp) //nolint:errcheck
		l.fail(err)
		return 0, l.err
	}
	syncDir(l.opts.Dir)
	l.compactLocked(lsn)
	met.snapshotSeconds.Observe(time.Since(start).Seconds())
	return lsn, nil
}

// writeSnapshotFile writes and fsyncs one snapshot file.
func writeSnapshotFile(path string, lsn uint64, db *store.DB, sessions []SessionState, subs []SubState, migrations []MigrationState) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(appendSnapshotHead(nil, lsn, sessions, subs, migrations)); err != nil {
		return err
	}
	if err := db.WriteBinary(f); err != nil {
		return err
	}
	return f.Sync()
}

// appendSnapshotHead appends everything of a snapshot before its store
// body: header, sessions, reserved byte, subscriptions, migrations.
func appendSnapshotHead(b []byte, lsn uint64, sessions []SessionState, subs []SubState, migrations []MigrationState) []byte {
	b = binfmt.AppendHeader(b, snapMagic, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.AppendUvarint(b, uint64(len(sessions)))
	for _, ss := range sessions {
		b = binfmt.AppendString(b, ss.PatientID)
		b = binfmt.AppendString(b, ss.SessionID)
		b = appendAnchor(b, ss.Samples, ss.LastT, ss.LastPos)
	}
	// Reserved byte, always 0: it was the presence byte of the
	// window-signature index configuration (see typeRetiredIndex).
	b = append(b, 0)
	// Standing-subscription section — count, then each state as a
	// length-prefixed appendSubState blob (the TypeSubUpsert body).
	// Subscription state must live in snapshots because compaction may
	// delete the segments holding the registration records and the
	// vertex appends the events were derived from.
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for i := range subs {
		blob := appendSubState(nil, &subs[i])
		b = binary.AppendUvarint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	// Session-migration section — count, then each state. Migration
	// state must live in snapshots because compaction may delete the
	// segment holding the TypeSessionMigrate record while the tombstone
	// (or an in-flight prepare) is still load-bearing.
	b = binary.AppendUvarint(b, uint64(len(migrations)))
	for _, m := range migrations {
		b = binfmt.AppendString(b, m.SessionID)
		b = binfmt.AppendString(b, m.PatientID)
		b = binfmt.AppendString(b, m.Target)
		b = binary.AppendUvarint(b, m.Epoch)
		b = append(b, m.Phase)
	}
	return b
}

// snapshotFile is one snapshot's decoded content.
type snapshotFile struct {
	LSN        uint64
	DB         *store.DB
	Sessions   []SessionState
	Subs       []SubState
	Migrations []MigrationState
}

// readSnapshotFile loads one snapshot file, read whole.
func readSnapshotFile(path string) (*snapshotFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sf, err := decodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	return sf, nil
}

// decodeSnapshot parses a whole snapshot file. A session is at least 12
// bytes (two empty IDs, a sample count, a time, no dims), a migration at
// least five (three empty strings, an epoch, a phase).
func decodeSnapshot(b []byte) (*snapshotFile, error) {
	d := binfmt.NewDecoder(b)
	d.Header(snapMagic, snapVersion)
	sf := &snapshotFile{LSN: d.Fixed64()}
	for i, n := 0, d.Count(12); i < n && d.Err() == nil; i++ {
		ss := SessionState{PatientID: d.Str(), SessionID: d.Str()}
		ss.Samples, ss.LastT, ss.LastPos = decodeAnchor(&d)
		sf.Sessions = append(sf.Sessions, ss)
	}
	// The reserved byte: a snapshot written while the index was served
	// set it and put the four configuration fields after it.
	if d.U8() != 0 {
		d.Uvarint()
		d.Uvarint()
		d.F64()
		d.F64()
	}
	for i, n := 0, d.Count(1); i < n && d.Err() == nil; i++ {
		blob := binfmt.NewDecoder(d.Bytes(d.Count(1)))
		st := decodeSubState(&blob)
		if err := blob.Finish(); err != nil {
			d.Fail(fmt.Errorf("subscription %d: %w", i, err))
			break
		}
		sf.Subs = append(sf.Subs, *st)
	}
	for i, n := 0, d.Count(5); i < n && d.Err() == nil; i++ {
		sf.Migrations = append(sf.Migrations, MigrationState{
			SessionID: d.Str(), PatientID: d.Str(), Target: d.Str(), Epoch: d.Uvarint(), Phase: decodePhase(&d)})
	}
	sf.DB = store.DecodeBinary(&d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return sf, nil
}

// compactLocked prunes old snapshots and deletes log segments no
// retained snapshot needs. Recovery may fall back to the OLDEST kept
// snapshot when newer ones are unreadable, so segments are retained
// back to that snapshot's LSN — not just the newest's — keeping the
// snapshot+tail replay contiguous for every snapshot still on disk.
// The active segment is never deleted. lsn is the LSN of the snapshot
// just written, used as the retention floor if listing fails.
func (l *Log) compactLocked(lsn uint64) {
	snaps, err := listSeq(l.opts.Dir, "snap-", ".db")
	if err != nil {
		return
	}
	for i := 0; i < len(snaps)-keepSnapshots; i++ {
		os.Remove(filepath.Join(l.opts.Dir, snapshotName(snaps[i]))) //nolint:errcheck
	}
	retain := lsn
	if oldest := len(snaps) - keepSnapshots; oldest < len(snaps) {
		if oldest < 0 {
			oldest = 0
		}
		if snaps[oldest] < retain {
			retain = snaps[oldest]
		}
	}
	segs, err := listSeq(l.opts.Dir, "wal-", ".log")
	if err != nil {
		return
	}
	for i, first := range segs {
		if first == l.segFirst {
			break
		}
		// A segment's records end where the next one begins; it is
		// disposable once that boundary is at or below every LSN a
		// surviving snapshot could resume replay from.
		if i+1 < len(segs) && segs[i+1] <= retain {
			os.Remove(filepath.Join(l.opts.Dir, segmentName(first))) //nolint:errcheck
		}
	}
	syncDir(l.opts.Dir)
}
