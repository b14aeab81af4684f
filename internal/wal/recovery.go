package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// RecoveryResult reports what Open found and rebuilt.
type RecoveryResult struct {
	// DB is the recovered database: the latest valid snapshot with the
	// WAL tail replayed on top (or the caller's initial database when
	// the directory was fresh).
	DB *store.DB

	// Sessions are the ingestion sessions that were open at the crash,
	// in open order.
	Sessions []SessionState

	// Fresh reports that the directory held no snapshot and no
	// segments, so DB is the initial database untouched.
	Fresh bool

	// SnapshotLSN is the LSN of the loaded snapshot (0 when none).
	SnapshotLSN uint64

	// RecordsReplayed counts WAL records applied on top of the
	// snapshot.
	RecordsReplayed uint64

	// RecordsTruncated counts torn or corrupt records dropped;
	// everything after the first one is discarded too, so this is 0 or
	// 1 per recovery in practice.
	RecordsTruncated uint64

	// BytesTruncated is how many bytes of torn log were cut off.
	BytesTruncated int64

	// SegmentsScanned is how many log segments replay visited.
	SegmentsScanned int

	// Subscriptions are the standing subscriptions materialized in the
	// loaded snapshot. SubOps then replays the WAL tail's
	// subscription-relevant history on top: the caller seeds its
	// subscription manager from Subscriptions and applies SubOps in
	// order, re-deriving exactly the events the pre-crash node emitted
	// (evaluation is deterministic in log order, and window content
	// below each op's To boundary is immutable under append-only
	// streams).
	Subscriptions []SubState
	SubOps        []SubReplayOp

	// Migrations are the surviving session-migration states, from the
	// snapshot with the WAL tail's TypeSessionMigrate records replayed
	// on top: committed tombstones (the session migrated away; the
	// owner answers stale routes with 410 + Target) and in-flight
	// prepares (the session is in Sessions but must resume fenced —
	// a cutover was racing when the node went down).
	Migrations []MigrationState

	// Duration is the wall time of snapshot load plus replay.
	Duration time.Duration
}

// SubReplayOp is one subscription-relevant event from the WAL tail, in
// log order. Exactly one of the four shapes is set: Upsert (a
// registration or replicated re-arm), DeleteID (a deletion), AckID+Ack
// (a delivery acknowledgement), or PatientID/SessionID/From/To (PLR
// vertices applied to a stream while subscriptions were live — the
// owner re-evaluates windows ending in [From, To) against each
// registered pattern, clamped by that subscription's cursor).
type SubReplayOp struct {
	Upsert   *SubState
	DeleteID string
	AckID    string
	Ack      uint64

	PatientID string
	SessionID string
	From, To  int
}

// Open opens (creating if necessary) the write-ahead log in opts.Dir
// and runs crash recovery: load the newest readable snapshot, replay
// every record at or above its LSN in segment order, and truncate the
// log at the first torn or corrupt record. The initial database is
// used only when the directory holds no prior state (it seeds the
// first snapshot so preloaded history is durable from the start);
// otherwise the recovered state wins and initial is ignored.
func Open(opts Options, initial *store.DB) (*Log, *RecoveryResult, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	removeTempFiles(opts.Dir)

	start := time.Now()
	snaps, err := listSeq(opts.Dir, "snap-", ".db")
	if err != nil {
		return nil, nil, err
	}
	segs, err := listSeq(opts.Dir, "wal-", ".log")
	if err != nil {
		return nil, nil, err
	}

	res := &RecoveryResult{Fresh: len(snaps) == 0 && len(segs) == 0}
	l := &Log{opts: opts}

	// Load the newest snapshot that parses; a torn snapshot (crash
	// during rename is prevented, but disks rot) falls back to the
	// previous one, and failing all of them to an empty database plus
	// full replay.
	snap := &snapshotFile{}
	for i := len(snaps) - 1; i >= 0; i-- {
		if sf, err := readSnapshotFile(filepath.Join(opts.Dir, snapshotName(snaps[i]))); err == nil {
			snap = sf
			break
		}
	}
	db := snap.DB
	if db == nil {
		if res.Fresh && initial != nil {
			db = initial
		} else {
			db = store.NewDB()
		}
	}
	snapLSN := snap.LSN
	res.SnapshotLSN = snapLSN

	rs := &replayState{
		db:         db,
		idx:        make(map[string]int),
		subs:       make(map[string]bool),
		migrations: make(map[string]MigrationState),
	}
	for _, ss := range snap.Sessions {
		rs.open(ss)
	}
	for i := range snap.Subs {
		rs.subs[snap.Subs[i].ID] = true
	}
	for _, m := range snap.Migrations {
		rs.migrations[m.SessionID] = m
	}

	// Replay segments in LSN order, verifying checksums and LSN
	// contiguity; the first torn record truncates the log there and
	// discards anything after it. Only ErrTorn is recoverable — I/O
	// errors and unsupported versions fail Open rather than destroy
	// data a retry (or a newer binary) could still read.
	nextLSN := snapLSN
	if nextLSN == 0 {
		nextLSN = 1
	}
	resume := -1 // index in segs of the segment to keep appending to
	var resumeEnd int64
	for i, first := range segs {
		if first > nextLSN {
			// Records in [nextLSN, first) exist nowhere: replaying over
			// the hole would silently produce an inconsistent database.
			return nil, nil, fmt.Errorf("wal: gap in log: segment %s starts at LSN %d but %d is next; refusing to replay over missing records",
				segmentName(first), first, nextLSN)
		}
		end, last, err := replaySegment(filepath.Join(opts.Dir, segmentName(first)), first, snapLSN, rs, res)
		res.SegmentsScanned++
		if last >= nextLSN {
			nextLSN = last + 1
		}
		resume, resumeEnd = i, end
		if err != nil {
			if !errors.Is(err, ErrTorn) {
				return nil, nil, fmt.Errorf("wal: reading %s: %w", segmentName(first), err)
			}
			// Truncate the torn tail and drop any later segments
			// (they cannot contain valid records past a tear).
			res.RecordsTruncated++
			if fi, statErr := os.Stat(filepath.Join(opts.Dir, segmentName(first))); statErr == nil {
				res.BytesTruncated += fi.Size() - end
			}
			os.Truncate(filepath.Join(opts.Dir, segmentName(first)), end) //nolint:errcheck
			for _, later := range segs[i+1:] {
				os.Remove(filepath.Join(opts.Dir, segmentName(later))) //nolint:errcheck
			}
			break
		}
	}
	l.nextLSN = nextLSN
	res.Sessions = rs.list()
	res.RecordsReplayed = rs.applied
	res.DB = db
	res.Subscriptions = snap.Subs
	res.SubOps = rs.subOps
	res.Migrations = rs.migrationList()
	if rs.retired > 0 {
		obs.Logger("wal").Warn("log holds window-signature index configuration records; the served index was removed and they are ignored",
			slog.String("dir", opts.Dir), slog.Int("records", rs.retired))
	}

	// Reopen the tail segment for appending, or start the first one. A
	// tail whose own header was torn (crash between segment creation
	// and header fsync) cannot be resumed: appending at offset 0 would
	// leave the segment headerless, and the next recovery would fail
	// its magic check and truncate everything written since. Replace it
	// with a fresh, properly-headered segment instead.
	if resume >= 0 && resumeEnd < segHdrLen {
		os.Remove(filepath.Join(opts.Dir, segmentName(segs[resume]))) //nolint:errcheck
		syncDir(opts.Dir)
		resume = -1
	}
	if resume >= 0 {
		err = l.resumeSegmentLocked(segs[resume], resumeEnd)
	} else {
		err = l.openSegmentLocked(l.nextLSN)
	}
	if err != nil {
		return nil, nil, err
	}

	res.Duration = time.Since(start)
	met.recoverySeconds.Observe(res.Duration.Seconds())
	met.replayedRecords.Set(int64(res.RecordsReplayed))
	met.truncatedRecords.Set(int64(res.RecordsTruncated))

	// A fresh directory seeded with preloaded history gets an initial
	// snapshot so the data dir is self-contained from the start.
	if res.Fresh && initial != nil && initial.NumPatients() > 0 {
		if _, err := l.Snapshot(initial, nil, nil); err != nil {
			l.Close() //nolint:errcheck
			return nil, nil, err
		}
	}

	if opts.FsyncInterval > 0 {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, res, nil
}

// replaySegment reads one segment, applying records with LSN >=
// snapLSN. It returns the offset just past the last valid record, the
// last valid LSN seen (0 if none), and a non-nil error if the segment
// could not be fully read: an error wrapping ErrTorn means the segment
// is torn at that offset (safe to truncate there); any other error —
// I/O failure, unsupported version — means the data may be intact and
// the caller must not truncate.
func replaySegment(path string, nameLSN, snapLSN uint64, rs *replayState, res *RecoveryResult) (int64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: segment header: %v", ErrTorn, err)
	}
	if string(hdr[:4]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad segment magic %q", ErrTorn, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != segVersion {
		return 0, 0, fmt.Errorf("wal: unsupported segment version %d", v)
	}
	if first := binary.LittleEndian.Uint64(hdr[6:]); first != nameLSN {
		return 0, 0, fmt.Errorf("%w: segment header LSN %d != name %d", ErrTorn, first, nameLSN)
	}

	offset := int64(segHdrLen)
	expect := nameLSN
	var last uint64
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return offset, last, nil
		}
		if err != nil {
			return offset, last, err
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return offset, last, err
		}
		if rec.LSN != expect {
			return offset, last, fmt.Errorf("%w: LSN %d, expected %d", ErrTorn, rec.LSN, expect)
		}
		if rec.LSN >= snapLSN {
			if err := rs.apply(rec); err != nil {
				return offset, last, fmt.Errorf("%w: applying %s: %v", ErrTorn, rec.Type, err)
			}
		}
		offset += int64(frameHeaderLen + len(payload))
		last = rec.LSN
		expect++
	}
}

// replayState rebuilds the database and the open-session set from
// records. Application is tolerant of replays that overlap the
// snapshot: existing patients/streams are reused and vertices that do
// not advance a stream are skipped.
type replayState struct {
	db         *store.DB
	sessions   []SessionState
	idx        map[string]int            // sessionID -> index in sessions, -1 when closed
	subs       map[string]bool           // live subscription IDs (snapshot-seeded)
	subOps     []SubReplayOp             // subscription-relevant history, log order
	migrations map[string]MigrationState // surviving migration states (snapshot-seeded)
	applied    uint64
	retired    int // typeRetiredIndex records passed over
}

func (rs *replayState) open(ss SessionState) {
	if i, ok := rs.idx[ss.SessionID]; ok && i >= 0 {
		return
	}
	rs.idx[ss.SessionID] = len(rs.sessions)
	rs.sessions = append(rs.sessions, ss)
}

// migrationList returns the surviving migration states sorted by
// session ID, so recovery output is deterministic.
func (rs *replayState) migrationList() []MigrationState {
	out := make([]MigrationState, 0, len(rs.migrations))
	for _, m := range rs.migrations {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SessionID < out[b].SessionID })
	return out
}

func (rs *replayState) list() []SessionState {
	out := make([]SessionState, 0, len(rs.sessions))
	for _, ss := range rs.sessions {
		if i, ok := rs.idx[ss.SessionID]; ok && i >= 0 {
			out = append(out, ss)
		}
	}
	return out
}

func (rs *replayState) patient(id string) (*store.Patient, error) {
	if p := rs.db.Patient(id); p != nil {
		return p, nil
	}
	return rs.db.AddPatient(store.PatientInfo{ID: id})
}

func (rs *replayState) apply(rec Record) error {
	rs.applied++
	switch rec.Type {
	case TypePatientUpsert:
		p := rs.db.Patient(rec.Patient.ID)
		if p == nil {
			_, err := rs.db.AddPatient(rec.Patient)
			return err
		}
		p.Info = rec.Patient
	case TypeStreamOpen:
		p, err := rs.patient(rec.PatientID)
		if err != nil {
			return err
		}
		if p.StreamBySession(rec.SessionID) == nil {
			p.AddStream(rec.SessionID)
		}
		rs.open(SessionState{PatientID: rec.PatientID, SessionID: rec.SessionID})
	case TypeVertexAppend:
		p, err := rs.patient(rec.PatientID)
		if err != nil {
			return err
		}
		st := p.StreamBySession(rec.SessionID)
		if st == nil {
			st = p.AddStream(rec.SessionID)
		}
		return rs.appendTail(st, rec)
	case TypeSessionClose:
		if i, ok := rs.idx[rec.SessionID]; ok && i >= 0 {
			rs.idx[rec.SessionID] = -1
		}
	case TypeSessionAnchor:
		if i, ok := rs.idx[rec.SessionID]; ok && i >= 0 {
			rs.sessions[i].Samples = rec.Samples
			rs.sessions[i].LastT = rec.AnchorT
			rs.sessions[i].LastPos = rec.AnchorPos
		}
	case TypeReplicaSnapshot:
		// Replica catch-up state journaled by a follower: rebuild the
		// stream (and patient) but do NOT open the session locally — the
		// primary owns it; this node only holds the copy.
		p, err := rs.patient(rec.PatientID)
		if err != nil {
			return err
		}
		if rec.Patient.ID == rec.PatientID && rec.PatientID != "" {
			p.Info = rec.Patient
		}
		st := p.StreamBySession(rec.SessionID)
		if st == nil {
			st = p.AddStream(rec.SessionID)
		}
		return rs.appendTail(st, rec)
	case TypeReplicaPromote:
		// This node took over the session at a failover: reopen it with
		// the promoted anchor so a later crash still recovers it as
		// primary. A session that migrated away and came back sheds its
		// tombstone — this node owns it again.
		delete(rs.migrations, rec.SessionID)
		rs.open(SessionState{PatientID: rec.PatientID, SessionID: rec.SessionID})
		if i, ok := rs.idx[rec.SessionID]; ok && i >= 0 {
			rs.sessions[i].Samples = rec.Samples
			rs.sessions[i].LastT = rec.AnchorT
			rs.sessions[i].LastPos = rec.AnchorPos
		}
	case typeRetiredIndex:
		rs.retired++
	case TypeSubUpsert:
		if rec.Sub == nil {
			return fmt.Errorf("sub-upsert without state")
		}
		rs.subs[rec.Sub.ID] = true
		rs.subOps = append(rs.subOps, SubReplayOp{Upsert: rec.Sub})
	case TypeSubDelete:
		delete(rs.subs, rec.SubID)
		rs.subOps = append(rs.subOps, SubReplayOp{DeleteID: rec.SubID})
	case TypeSubAck:
		if rs.subs[rec.SubID] {
			rs.subOps = append(rs.subOps, SubReplayOp{AckID: rec.SubID, Ack: rec.SubAck})
		}
	case TypeSessionMigrate:
		switch rec.Phase {
		case MigratePrepare:
			// The session stays open (it resumes fenced on the source);
			// the prepare marks the cutover as re-drivable.
			rs.migrations[rec.SessionID] = MigrationState{
				SessionID: rec.SessionID, PatientID: rec.PatientID,
				Target: rec.Target, Epoch: rec.Epoch, Phase: MigratePrepare,
			}
		case MigrateCommit:
			// The target is primary now: close the session here and keep
			// a tombstone so stale routes are answered 410 + Target.
			if i, ok := rs.idx[rec.SessionID]; ok && i >= 0 {
				rs.idx[rec.SessionID] = -1
			}
			rs.migrations[rec.SessionID] = MigrationState{
				SessionID: rec.SessionID, PatientID: rec.PatientID,
				Target: rec.Target, Epoch: rec.Epoch, Phase: MigrateCommit,
			}
		case MigrateAbort:
			delete(rs.migrations, rec.SessionID)
		default:
			return fmt.Errorf("unknown migration phase %d", rec.Phase)
		}
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	return nil
}

// appendTail applies a record's vertex tail to st and, while any
// subscription is live, records the append boundaries so the owner can
// re-derive the events the pre-crash node emitted for it.
func (rs *replayState) appendTail(st *store.Stream, rec Record) error {
	vs := TailAfter(st, rec.Vertices)
	if len(vs) == 0 {
		return nil
	}
	from := st.Len()
	if err := st.Append(vs...); err != nil {
		return err
	}
	if len(rs.subs) > 0 {
		rs.subOps = append(rs.subOps, SubReplayOp{
			PatientID: rec.PatientID,
			SessionID: rec.SessionID,
			From:      from,
			To:        from + len(vs),
		})
	}
	return nil
}

// TailAfter drops the vertices of vs already present in the stream
// (those at or before the stream's last time), so replays and re-shipped
// snapshots that overlap existing state stay idempotent. The kept tail
// reuses vs.
func TailAfter(st *store.Stream, vs []plr.Vertex) []plr.Vertex {
	view := st.ScanView("")
	if view.Len() == 0 {
		return vs
	}
	lastT := view.T[view.Len()-1]
	keep := vs[:0]
	for _, v := range vs {
		if v.T > lastT {
			keep = append(keep, v)
		}
	}
	return keep
}

// removeTempFiles clears half-written snapshot temp files left by a
// crash mid-snapshot (the rename never happened, so they are garbage).
func removeTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(dir, e.Name())) //nolint:errcheck
		}
	}
}
