package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"stsmatch/internal/plr"
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
	met.snapshots.Inc()
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
	w := bufio.NewWriterSize(f, 1<<16)
	var hdr [4 + 2 + 8]byte
	copy(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], snapVersion)
	binary.LittleEndian.PutUint64(hdr[6:], lsn)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(sessions)))
	for _, ss := range sessions {
		b = appendString(b, ss.PatientID)
		b = appendString(b, ss.SessionID)
		b = binary.AppendUvarint(b, ss.Samples)
		b = appendF64(b, ss.LastT)
		b = binary.AppendUvarint(b, uint64(len(ss.LastPos)))
		for _, x := range ss.LastPos {
			b = appendF64(b, x)
		}
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
		b = appendString(b, m.SessionID)
		b = appendString(b, m.PatientID)
		b = appendString(b, m.Target)
		b = binary.AppendUvarint(b, m.Epoch)
		b = append(b, m.Phase)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := db.WriteBinary(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// snapshotFile is one snapshot's decoded content.
type snapshotFile struct {
	LSN        uint64
	DB         *store.DB
	Sessions   []SessionState
	Subs       []SubState
	Migrations []MigrationState
}

// readSnapshotFile loads one snapshot file.
func readSnapshotFile(path string) (*snapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := snapReader{r: bufio.NewReaderSize(f, 1<<16)}
	var hdr [4 + 2 + 8]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: snapshot header: %w", err)
	}
	if string(hdr[:4]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic %q", hdr[:4])
	}
	if version := binary.LittleEndian.Uint16(hdr[4:6]); version != snapVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", version)
	}
	sf := &snapshotFile{LSN: binary.LittleEndian.Uint64(hdr[6:])}

	for i, n := 0, s.count(1<<20, "session count"); uint64(i) < n && s.err == nil; i++ {
		ss := SessionState{PatientID: s.str(), SessionID: s.str(), Samples: s.uvarint(), LastT: s.f64()}
		ss.LastPos = make([]float64, s.count(plr.MaxDims, "anchor dims"))
		for j := range ss.LastPos {
			ss.LastPos[j] = s.f64()
		}
		sf.Sessions = append(sf.Sessions, ss)
	}
	if s.err != nil {
		return nil, fmt.Errorf("wal: snapshot session section: %w", s.err)
	}

	// The reserved byte: a snapshot written while the index was served
	// set it and put the four configuration fields after it.
	if s.u8() != 0 {
		s.uvarint()
		s.uvarint()
		s.f64()
		s.f64()
	}
	if s.err != nil {
		return nil, fmt.Errorf("wal: snapshot reserved section: %w", s.err)
	}

	for i, n := 0, s.count(1<<20, "subscription count"); uint64(i) < n && s.err == nil; i++ {
		d := decoder{b: s.bytes(s.count(maxPayload, "subscription blob length"))}
		if s.err != nil {
			break
		}
		st := d.subState()
		if d.err == nil && d.off != len(d.b) {
			d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
		}
		if d.err != nil {
			s.err = fmt.Errorf("subscription %d: %w", i, d.err)
			break
		}
		sf.Subs = append(sf.Subs, *st)
	}
	if s.err != nil {
		return nil, fmt.Errorf("wal: snapshot subscription section: %w", s.err)
	}

	for i, n := 0, s.count(1<<20, "migration count"); uint64(i) < n && s.err == nil; i++ {
		m := MigrationState{SessionID: s.str(), PatientID: s.str(), Target: s.str(), Epoch: s.uvarint(), Phase: s.u8()}
		if s.err == nil && (m.Phase < MigratePrepare || m.Phase > MigrateAbort) {
			s.err = fmt.Errorf("migration %d: invalid phase %d", i, m.Phase)
		}
		sf.Migrations = append(sf.Migrations, m)
	}
	if s.err != nil {
		return nil, fmt.Errorf("wal: snapshot migration section: %w", s.err)
	}

	if sf.DB, err = store.ReadBinary(s.r); err != nil {
		return nil, fmt.Errorf("wal: snapshot payload: %w", err)
	}
	return sf, nil
}

// snapReader reads a snapshot's sections off the stream, latching the
// first error so the section decoders read straight-line (what decoder
// does for a record's byte slice). After an error every read returns
// zero.
type snapReader struct {
	r   *bufio.Reader
	err error
}

func (s *snapReader) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	var v uint64
	v, s.err = binary.ReadUvarint(s.r)
	return v
}

// count reads a uvarint that sizes an allocation or a loop and refuses
// values above max, so a corrupt file cannot demand unbounded work.
func (s *snapReader) count(max uint64, what string) uint64 {
	v := s.uvarint()
	if s.err == nil && v > max {
		s.err = fmt.Errorf("implausible %s %d", what, v)
		return 0
	}
	return v
}

func (s *snapReader) bytes(n uint64) []byte {
	if s.err != nil {
		return nil
	}
	buf := make([]byte, n)
	_, s.err = io.ReadFull(s.r, buf)
	return buf
}

func (s *snapReader) u8() byte {
	if s.err != nil {
		return 0
	}
	var v byte
	v, s.err = s.r.ReadByte()
	return v
}

func (s *snapReader) f64() float64 {
	var b [8]byte
	if s.err == nil {
		_, s.err = io.ReadFull(s.r, b[:])
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (s *snapReader) str() string { return string(s.bytes(s.count(store.MaxIDBytes, "string length"))) }

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
