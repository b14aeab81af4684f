package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"stsmatch/internal/binfmt"
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

	// Subscriptions are the standing subscriptions materialized in the
	// loaded snapshot. SubOps then replays the WAL tail's
	// subscription-relevant history on top: the caller seeds its
	// subscription manager from Subscriptions and applies SubOps in
	// order, re-deriving exactly the events the pre-crash node emitted
	// (evaluation is deterministic in log order, and window content
	// below each op's To boundary is immutable under append-only
	// streams). Every vertex-append of the tail from the first
	// subscription named on (in the snapshot or the tail) has its
	// boundary there, whatever subscriptions were live when it was
	// journaled.
	Subscriptions []SubState
	SubOps        []SubReplayOp

	// Replay is the interpreter that rebuilt all of this. The node keeps
	// it as its one table of what its records decided, live as after a
	// restart: owned and followed sessions, committed tombstones (the
	// session migrated away; stale routes get 410 + Target) and in-flight
	// prepares (the session is in Sessions but resumes fenced — a cutover
	// was racing when the node went down).
	Replay *Replay

	// Duration is the wall time of snapshot load plus replay.
	Duration time.Duration
}

// SubReplayOp is one subscription-relevant event from the WAL tail, in
// log order. Exactly one of the four shapes is set: Upsert (a
// registration or replicated re-arm), DeleteID (a deletion), AckID+Ack
// (a delivery acknowledgement), or PatientID/SessionID/To (the
// boundary of a vertex-append: the windows ending below To are
// evaluated against each subscription in scope, from that
// subscription's cursor on). Consecutive appends to one stream share
// one boundary op, at the last one's length.
type SubReplayOp struct {
	Upsert   *SubState
	DeleteID string
	AckID    string
	Ack      uint64

	PatientID string
	SessionID string
	To        int
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
	// full replay. A snapshot of another version is not torn: it fails
	// Open like a segment of another version, with every file left as it
	// is, rather than recover an older state beside it.
	snap := &snapshotFile{}
	for i := len(snaps) - 1; i >= 0; i-- {
		sf, err := readSnapshotFile(filepath.Join(opts.Dir, snapshotName(snaps[i])))
		if errors.Is(err, binfmt.ErrVersion) {
			return nil, nil, err
		}
		if err == nil {
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

	rp := NewReplay(db)
	rp.bare = len(snap.Subs) == 0
	for _, ss := range snap.Sessions {
		rp.own(ss)
	}
	for _, m := range snap.Migrations {
		rp.migrations[m.SessionID] = m
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
		end, last, err := replaySegment(filepath.Join(opts.Dir, segmentName(first)), first, snapLSN, rp, res)
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
			// Appends resume at the tear, so a cut that fails fails Open:
			// new records would follow bytes that are not records. The
			// later segments go first: until the tear is cut, the next Open
			// stops at it again and retries both.
			for _, later := range segs[i+1:] {
				if err := remove(filepath.Join(opts.Dir, segmentName(later))); err != nil {
					return nil, nil, fmt.Errorf("wal: removing %s past the tear in %s: %w", segmentName(later), segmentName(first), err)
				}
			}
			if i+1 < len(segs) {
				if err := syncDir(opts.Dir); err != nil {
					return nil, nil, err
				}
			}
			if err := truncate(filepath.Join(opts.Dir, segmentName(first)), end); err != nil {
				return nil, nil, fmt.Errorf("wal: cutting %s at its tear: %w", segmentName(first), err)
			}
			break
		}
	}
	l.nextLSN = nextLSN
	res.Sessions = rp.owned()
	res.RecordsReplayed = rp.applied
	res.DB = db
	res.Subscriptions = snap.Subs
	res.SubOps = rp.TakeSubOps()
	rp.bare = false // a live node can register a subscription at any time
	res.Replay = rp

	// Reopen the tail segment for appending, or start the first one. A
	// tail whose own header was torn (crash between segment creation
	// and header fsync) cannot be resumed: appending at offset 0 would
	// leave the segment headerless, and the next recovery would fail
	// its magic check and truncate everything written since. Replace it
	// with a fresh, properly-headered segment instead.
	if resume >= 0 && resumeEnd < segHdrLen {
		if err := remove(filepath.Join(opts.Dir, segmentName(segs[resume]))); err != nil {
			return nil, nil, fmt.Errorf("wal: removing headerless %s: %w", segmentName(segs[resume]), err)
		}
		if err := syncDir(opts.Dir); err != nil {
			return nil, nil, err
		}
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
func replaySegment(path string, nameLSN, snapLSN uint64, rp *Replay, res *RecoveryResult) (int64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	// A header cut short or naming another LSN is torn; another version
	// is not, and fails Open with the segment left as it is.
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: segment header: %v", ErrTorn, err)
	}
	d := binfmt.NewDecoder(hdr[:])
	d.Header(segMagic, segVersion)
	if first := d.Fixed64(); d.Err() == nil && first != nameLSN {
		d.Fail(fmt.Errorf("segment header LSN %d != name %d", first, nameLSN))
	}
	if err := d.Err(); errors.Is(err, binfmt.ErrVersion) {
		return 0, 0, fmt.Errorf("wal: segment: %w", err)
	} else if err != nil {
		return 0, 0, torn(err)
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
			if _, err := rp.Apply(rec); err != nil {
				return offset, last, fmt.Errorf("%w: applying %s: %v", ErrTorn, rec.Type, err)
			}
		}
		offset += int64(frameHeaderLen + len(payload))
		last = rec.LSN
		expect++
	}
}

// Replay is the one interpreter of records: recovery replays a data dir
// through it, a follower applies every shipped record with it and a node
// applies the ownership and migration records it journals, so a node's
// state is one function of the records it has seen, live as after a
// restart. A session it has seen is owned iff its last ownership record
// is a promote (or the snapshot manifest lists it), followed otherwise;
// a close drops it. A vertex-append extends its stream only past its
// last vertex.
type Replay struct {
	db         *store.DB
	sessions   map[string]*replaySession
	ownings    uint64                    // sessions that came to be owned, for their order
	subOps     []SubReplayOp             // subscription history not yet taken, log order
	bare       bool                      // recovery before any subscription is named: no boundary can evaluate one
	migrations map[string]MigrationState // surviving migration states
	applied    uint64
}

// replaySession is a session Replay has seen, owned or followed.
type replaySession struct {
	SessionState
	Follow
	owned uint64 // 1 + its place among the sessions that came to be owned; 0 while followed
}

// Follow is a node's position in a session it follows: the cursor of the
// batches it applied, their source and whether the last one diverged. It
// is soft state, not journaled: a restarted node follows nothing until a
// link catches it up.
type Follow struct {
	Cursor   Cursor
	Source   string // of the batches the cursor accepted: the owner followed
	Diverged bool   // the last batch would not extend the copy: not following
}

// Following reports that a link caught the session up since the node
// started and its copy did not diverge: it is listed and promotable.
func (f *Follow) Following() bool { return f.Cursor.Epoch > 0 && !f.Diverged }

// NewReplay returns an interpreter of records applying them to db.
func NewReplay(db *store.DB) *Replay {
	return &Replay{db: db, sessions: map[string]*replaySession{}, migrations: map[string]MigrationState{}}
}

// session returns the entry of sessionID, adding a followed one.
func (r *Replay) session(patientID, sessionID string) *replaySession {
	rs := r.sessions[sessionID]
	if rs == nil {
		rs = &replaySession{SessionState: SessionState{PatientID: patientID, SessionID: sessionID}}
		r.sessions[sessionID] = rs
	}
	return rs
}

// own records ss as owned here; an owned session keeps its place.
func (r *Replay) own(ss SessionState) {
	rs := r.session(ss.PatientID, ss.SessionID)
	if rs.owned == 0 {
		r.ownings++
		rs.owned = r.ownings
	}
	rs.SessionState = ss
}

// owned returns the owned sessions in the order they came to be owned.
func (r *Replay) owned() []SessionState {
	var out []SessionState
	for _, rs := range r.sessions {
		if rs.owned > 0 {
			out = append(out, rs.SessionState)
		}
	}
	sort.Slice(out, func(a, b int) bool { return r.sessions[out[a].SessionID].owned < r.sessions[out[b].SessionID].owned })
	return out
}

// Session returns a followed session — seen, not owned and not closed
// since — with its anchor, the one a promoted follower resumes from, and
// the node's position in it.
func (r *Replay) Session(sessionID string) (SessionState, *Follow, bool) {
	if rs, ok := r.sessions[sessionID]; ok && rs.owned == 0 {
		return rs.SessionState, &rs.Follow, true
	}
	return SessionState{}, nil, false
}

// Follow returns the node's position in a session, adding a followed
// entry.
func (r *Replay) Follow(patientID, sessionID string) *Follow {
	return &r.session(patientID, sessionID).Follow
}

// Followed calls fn with every followed session, as Session returns it.
func (r *Replay) Followed(fn func(SessionState, *Follow)) {
	for _, rs := range r.sessions {
		if rs.owned == 0 {
			fn(rs.SessionState, &rs.Follow)
		}
	}
}

// Migration returns a session's surviving migration state: a prepare
// (the session is fenced) or a commit (its tombstone).
func (r *Replay) Migration(sessionID string) (MigrationState, bool) {
	m, ok := r.migrations[sessionID]
	return m, ok
}

// TakeSubOps returns the subscription history applied since the last
// call, in log order, and forgets it.
func (r *Replay) TakeSubOps() []SubReplayOp {
	ops := r.subOps
	r.subOps = nil
	return ops
}

// Migrations returns the surviving migration states sorted by session
// ID, so a snapshot and a listing are deterministic.
func (r *Replay) Migrations() []MigrationState {
	out := make([]MigrationState, 0, len(r.migrations))
	for _, m := range r.migrations {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SessionID < out[b].SessionID })
	return out
}

// stream returns a session's stream, adding it (and a bare patient).
func (r *Replay) stream(patientID, sessionID string) (*store.Stream, error) {
	p := r.db.Patient(patientID)
	if p == nil {
		var err error
		if p, err = r.db.AddPatient(store.PatientInfo{ID: patientID}); err != nil {
			return nil, err
		}
	}
	if st := p.StreamBySession(sessionID); st != nil {
		return st, nil
	}
	return p.AddStream(sessionID), nil
}

// Apply interprets one record and returns it as applied: a vertex
// append carries only the vertices it added to the stream (those that
// landed before an error too), any other record is returned as it came.
func (r *Replay) Apply(rec Record) (Record, error) {
	r.applied++
	switch rec.Type {
	case TypePatientUpsert:
		if p := r.db.Patient(rec.Patient.ID); p != nil {
			p.Info = rec.Patient
		} else if _, err := r.db.AddPatient(rec.Patient); err != nil {
			return rec, err
		}
	case TypeStreamOpen:
		// A create journals a promote beside it; a follower does not.
		if _, err := r.stream(rec.PatientID, rec.SessionID); err != nil {
			return rec, err
		}
		r.session(rec.PatientID, rec.SessionID)
	case TypeVertexAppend:
		st, err := r.stream(rec.PatientID, rec.SessionID)
		if err != nil {
			return rec, err
		}
		return r.appendTail(st, rec)
	case TypeSessionClose:
		// Closed: no longer owned, and no longer a tombstone's claim.
		delete(r.sessions, rec.SessionID)
		delete(r.migrations, rec.SessionID)
	case TypeSessionAnchor:
		ss := &r.session(rec.PatientID, rec.SessionID).SessionState
		ss.Samples, ss.LastT, ss.LastPos = rec.Samples, rec.AnchorT, rec.AnchorPos
	case TypeReplicaPromote:
		// Owned from its create or a promotion, resumed at the record's
		// anchor, epoch and followers. A session that migrated away and
		// came back sheds its tombstone.
		delete(r.migrations, rec.SessionID)
		r.own(SessionState{
			PatientID: rec.PatientID, SessionID: rec.SessionID,
			Samples: rec.Samples, LastT: rec.AnchorT, LastPos: rec.AnchorPos,
			Epoch: rec.Epoch, Followers: rec.Followers,
		})
	case TypeSubUpsert:
		if rec.Sub == nil {
			return rec, fmt.Errorf("sub-upsert without state")
		}
		r.bare = false
		r.subOps = append(r.subOps, SubReplayOp{Upsert: rec.Sub})
	case TypeSubDelete:
		r.subOps = append(r.subOps, SubReplayOp{DeleteID: rec.SubID})
	case TypeSubAck:
		r.subOps = append(r.subOps, SubReplayOp{AckID: rec.SubID, Ack: rec.SubAck})
	case TypeSessionMigrate:
		m := MigrationState{SessionID: rec.SessionID, PatientID: rec.PatientID,
			Target: rec.Target, Epoch: rec.Epoch, Phase: rec.Phase}
		switch rec.Phase {
		case MigratePrepare:
			// The session stays owned (it resumes fenced on the source);
			// the prepare marks the cutover as re-drivable.
			r.migrations[rec.SessionID] = m
		case MigrateCommit:
			// The target is primary now: the session ends here, and a
			// tombstone answers stale routes with 410 + Target.
			delete(r.sessions, rec.SessionID)
			r.migrations[rec.SessionID] = m
		case MigrateAbort:
			delete(r.migrations, rec.SessionID)
		default:
			return rec, fmt.Errorf("unknown migration phase %d", rec.Phase)
		}
	default:
		return rec, fmt.Errorf("unknown record type %d", rec.Type)
	}
	return rec, nil
}

// appendTail appends a record's vertices to st and records the boundary
// of what landed, so the events are derived where the journaling node
// derived them; a boundary right after one of the same stream extends
// it. A recovery records none before the snapshot or the tail names a
// subscription: the node holds none to evaluate. The store takes an append only past the stream's last vertex: a
// vertex it refuses is a divergence.
func (r *Replay) appendTail(st *store.Stream, rec Record) (Record, error) {
	before := st.Len()
	err := st.Append(rec.Vertices...)
	rec.Vertices = rec.Vertices[:st.Len()-before]
	if len(rec.Vertices) > 0 && !r.bare {
		if n := len(r.subOps) - 1; n >= 0 && r.subOps[n].To > 0 &&
			r.subOps[n].PatientID == rec.PatientID && r.subOps[n].SessionID == rec.SessionID {
			r.subOps[n].To = st.Len()
		} else {
			r.subOps = append(r.subOps, SubReplayOp{PatientID: rec.PatientID, SessionID: rec.SessionID, To: st.Len()})
		}
	}
	if err != nil {
		return rec, fmt.Errorf("%w: %w", ErrDiverged, err)
	}
	return rec, nil
}

// ErrDiverged reports vertices that would not extend the copy they meet.
var ErrDiverged = errors.New("wal: the copy is not a prefix of the owner's stream")

// Extend is the one rule for a catch-up, records led by a stream-open,
// to held, a node's copy of the session's stream. It counts how many
// leading vertices of the stream the catch-up carries (empty without a
// vertex-append) the copy shares, bit for bit as the log encodes a
// vertex; an owner's 412 to a deposed node's catch-up reports the count.
// Only a copy that shares all its vertices, a prefix, is extended:
// Extend cuts the vertex-append to the vertices past it; else it returns
// ErrDiverged. It reports whether recs are a catch-up, and the count.
func Extend(held store.ScanView, recs []Record) (catchup bool, shared int, err error) {
	if len(recs) == 0 || recs[0].Type != TypeStreamOpen {
		return false, 0, nil
	}
	n, i := held.Len(), slices.IndexFunc(recs, func(rec Record) bool { return rec.Type == TypeVertexAppend })
	if i >= 0 {
		vs := recs[i].Vertices
		var a, b []byte
		for ; shared < min(n, len(vs)); shared++ {
			h, v := held.Vertex(shared), vs[shared]
			a, b = binfmt.AppendVertex(a[:0], h.T, h.State, h.Pos), binfmt.AppendVertex(b[:0], v.T, v.State, v.Pos)
			if !bytes.Equal(a, b) {
				break
			}
		}
		if shared == n {
			recs[i].Vertices = vs[n:]
			return true, n, nil
		}
	}
	if n > 0 {
		return true, shared, ErrDiverged
	}
	return true, 0, nil
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
