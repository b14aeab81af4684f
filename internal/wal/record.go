package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// Type identifies a WAL record. A node journals the records its
// writers build and those it follows; a link ships a subset of them,
// and Replay interprets both (DESIGN §8).
type Type uint8

// The WAL record types.
const (
	TypePatientUpsert Type = 1 // patient created (or metadata updated)
	TypeStreamOpen    Type = 2 // session stream created under a patient; a link's catch-up starts with one
	TypeVertexAppend  Type = 3 // PLR vertices appended to a stream: one ingest request's, or a catch-up's whole stream
	TypeSessionClose  Type = 4 // ingestion session closed
	TypeSessionAnchor Type = 5 // latest raw observation of a session, owned or followed

	// Types 6 and 8 are retired, their numbers never reused: 6 carried
	// a session's whole state on the wire only (a catch-up is the
	// session's own records now; DecodeBatch refuses the batch version
	// that held one), 8 the window-signature index configuration (no
	// data dir Open accepts can hold one).

	// TypeReplicaPromote marks the node journaling it as the session's
	// owner: at create (epoch 1, beside the open's own records) and when
	// a replica is promoted to primary. A session is owned on a node iff
	// its last ownership record there is a promote, so a node that
	// restarts later resumes it as primary from the embedded anchor and
	// ships to the same followers at the same epoch. Epoch fences zombie
	// primaries: batches with a lower epoch are rejected by followers.
	TypeReplicaPromote Type = 7

	// Standing-subscription record types (PR 8). A subscription's
	// events are a deterministic function of (pattern, stream content,
	// per-stream cursor), so the log journals only the registration
	// state and lifecycle transitions; recovery re-derives the events
	// by replaying vertex appends against the registered subscriptions
	// in log order, and snapshots embed the full materialized state
	// (cursors, event numbering, undelivered buffer) so compaction
	// cannot lose events whose source records it deleted.

	// TypeSubUpsert registers (or, replicated, re-arms) a standing
	// subscription, carrying its full durable state: pattern, scope,
	// threshold, per-stream cursors, event numbering and any
	// undelivered events. Journaled and fsynced before the create is
	// acknowledged.
	TypeSubUpsert Type = 9

	// TypeSubDelete removes a subscription. Journaled and fsynced
	// before the delete is acknowledged — like a session close — so a
	// deleted subscription never resurrects after recovery.
	TypeSubDelete Type = 10

	// TypeSubAck advances a subscription's delivery high-water mark:
	// journaled when a consumer acknowledges receipt (a reconnect with
	// Last-Event-ID), so a recovered node knows which events were
	// already delivered.
	TypeSubAck Type = 11

	// TypeSessionMigrate journals one phase transition of a live
	// session migration (PR 10). The source journals MigratePrepare
	// (fsynced) before asking the target to promote — a restart then
	// resumes the session fenced, so no write can land in the ambiguous
	// window — and MigrateCommit (fsynced) once the target is primary:
	// the session is closed here and a durable tombstone answers stale
	// routes with 410 + the target URL. MigrateAbort rolls a prepare
	// back (cutover failed; the session keeps serving here). Snapshots
	// embed the surviving migration states so compaction cannot lose a
	// tombstone or an in-flight prepare.
	TypeSessionMigrate Type = 12
)

// Migration phases carried by TypeSessionMigrate records and
// MigrationState entries.
const (
	MigratePrepare uint8 = 1 // fenced; cutover to Target in flight
	MigrateCommit  uint8 = 2 // target promoted; session tombstoned here
	MigrateAbort   uint8 = 3 // cutover failed; prepare rolled back
)

// MigrationState is the durable migration state of one session on the
// source shard: an in-flight prepare (the session resumes fenced) or a
// committed tombstone (the session is gone; Target says where).
type MigrationState struct {
	SessionID string
	PatientID string
	Target    string // target shard's advertised base URL
	Epoch     uint64 // target's fencing epoch at cutover (0 until commit)
	Phase     uint8  // MigratePrepare or MigrateCommit
}

// String returns the record type name.
func (t Type) String() string {
	switch t {
	case TypePatientUpsert:
		return "patient-upsert"
	case TypeStreamOpen:
		return "stream-open"
	case TypeVertexAppend:
		return "vertex-append"
	case TypeSessionClose:
		return "session-close"
	case TypeSessionAnchor:
		return "session-anchor"
	case TypeReplicaPromote:
		return "replica-promote"
	case TypeSubUpsert:
		return "sub-upsert"
	case TypeSubDelete:
		return "sub-delete"
	case TypeSubAck:
		return "sub-ack"
	case TypeSessionMigrate:
		return "session-migrate"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one logical WAL entry. Only the fields relevant to Type
// are encoded; LSN is assigned by Log.Append.
type Record struct {
	Type Type
	LSN  uint64

	Patient   store.PatientInfo // TypePatientUpsert
	PatientID string            // TypeStreamOpen, TypeVertexAppend, TypeSessionAnchor, TypeReplicaPromote
	SessionID string            // all but TypePatientUpsert
	Vertices  plr.Sequence      // TypeVertexAppend

	Samples   uint64    // TypeSessionAnchor, TypeReplicaPromote
	AnchorT   float64   // TypeSessionAnchor, TypeReplicaPromote
	AnchorPos []float64 // TypeSessionAnchor, TypeReplicaPromote

	// Epoch is the replication fencing term (TypeReplicaPromote): each
	// promotion increments it, and followers reject batches from lower
	// epochs so a deposed primary cannot overwrite a promoted one.
	Epoch uint64 // TypeReplicaPromote, TypeSessionMigrate

	// Followers are the base URLs the owner ships the session to.
	Followers []string // TypeReplicaPromote

	// Target is the migration target's advertised base URL; Phase is
	// the migration phase (MigratePrepare/Commit/Abort).
	Target string // TypeSessionMigrate
	Phase  uint8  // TypeSessionMigrate

	// Sub carries a standing subscription's full durable state.
	Sub *SubState // TypeSubUpsert

	// SubID names the subscription a lifecycle record applies to.
	SubID string // TypeSubDelete, TypeSubAck

	// SubAck is the acknowledged delivery high-water mark.
	SubAck uint64 // TypeSubAck
}

// SubState is the durable state of one standing subscription: the
// registration (pattern, scope, acceptance rule) plus the materialized
// evaluation state (per-stream cursors, event numbering, undelivered
// buffer). It mirrors subscribe.Subscription without importing it,
// keeping the WAL free of matcher dependencies.
type SubState struct {
	ID        string
	PatientID string // scope + query provenance; "" = every patient
	SessionID string // "" = every session of the scoped patient(s)
	Threshold float64
	Pattern   plr.Sequence

	NextSeq   uint64 // next event sequence number (1-based)
	Delivered uint64 // delivery high-water mark (consumer-acked)
	Cursors   []SubCursor
	Events    []SubEvent // emitted, not yet acknowledged
}

// Covers reports whether the subscription's scope includes the stream
// of patientID's session sessionID: an empty scope field matches any.
func (s *SubState) Covers(patientID, sessionID string) bool {
	return (s.PatientID == "" || s.PatientID == patientID) &&
		(s.SessionID == "" || s.SessionID == sessionID)
}

// SubCursor is one stream's evaluation cursor inside a subscription:
// windows ending below Len have been evaluated (or predate the
// subscription's registration baseline).
type SubCursor struct {
	PatientID string
	SessionID string
	Len       uint64
}

// SubEvent is one emitted match event in durable form.
type SubEvent struct {
	Seq       uint64
	PatientID string
	SessionID string
	Start     uint32
	N         uint32
	Relation  uint8
	Distance  float64
	Weight    float64
	EndT      float64
	At        float64 // emission wall time, unix seconds (delivery lag)
}

// ErrTorn marks a record that is incomplete or fails its checksum —
// the expected state of the final record after a crash mid-write.
// Recovery truncates the log here instead of failing.
var ErrTorn = errors.New("wal: torn or corrupt record")

// Framing and payload limits. A frame is
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// and the payload is
//
//	u8 type | uvarint lsn | type-specific fields
//
// built from the binfmt primitives. maxPayload bounds a frame read off a
// stream, before its bytes are in hand to bound anything else.
const (
	frameHeaderLen = 8
	maxPayload     = 1 << 26 // 64 MiB: far above any real record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodePayload serializes a record payload (without framing).
func encodePayload(rec Record) []byte {
	b := make([]byte, 0, 64+len(rec.Vertices)*24)
	b = append(b, byte(rec.Type))
	b = binary.AppendUvarint(b, rec.LSN)
	switch rec.Type {
	case TypePatientUpsert:
		b = appendPatient(b, rec.Patient)
	case TypeStreamOpen:
		b = binfmt.AppendString(b, rec.PatientID)
		b = binfmt.AppendString(b, rec.SessionID)
	case TypeVertexAppend:
		b = binfmt.AppendString(b, rec.PatientID)
		b = binfmt.AppendString(b, rec.SessionID)
		b = binfmt.AppendSequence(b, rec.Vertices)
	case TypeSessionClose:
		b = binfmt.AppendString(b, rec.SessionID)
	case TypeSessionAnchor:
		b = binfmt.AppendString(b, rec.PatientID)
		b = binfmt.AppendString(b, rec.SessionID)
		b = appendAnchor(b, rec.Samples, rec.AnchorT, rec.AnchorPos)
	case TypeReplicaPromote:
		b = binfmt.AppendString(b, rec.PatientID)
		b = binfmt.AppendString(b, rec.SessionID)
		b = appendAnchor(b, rec.Samples, rec.AnchorT, rec.AnchorPos)
		b = appendOwner(b, rec.Epoch, rec.Followers)
	case TypeSubUpsert:
		b = appendSubState(b, rec.Sub)
	case TypeSubDelete:
		b = binfmt.AppendString(b, rec.SubID)
	case TypeSubAck:
		b = binfmt.AppendString(b, rec.SubID)
		b = binary.AppendUvarint(b, rec.SubAck)
	case TypeSessionMigrate:
		b = binfmt.AppendString(b, rec.PatientID)
		b = binfmt.AppendString(b, rec.SessionID)
		b = binfmt.AppendString(b, rec.Target)
		b = binary.AppendUvarint(b, rec.Epoch)
		b = append(b, rec.Phase)
	}
	return b
}

// appendSubState serializes a subscription's full durable state: the
// TypeSubUpsert payload body, also reused verbatim inside snapshots.
func appendSubState(b []byte, s *SubState) []byte {
	if s == nil {
		s = &SubState{}
	}
	b = binfmt.AppendString(b, s.ID)
	b = binfmt.AppendString(b, s.PatientID)
	b = binfmt.AppendString(b, s.SessionID)
	b = binfmt.AppendF64(b, s.Threshold)
	b = binfmt.AppendSequence(b, s.Pattern)
	b = binary.AppendUvarint(b, s.NextSeq)
	b = binary.AppendUvarint(b, s.Delivered)
	b = binary.AppendUvarint(b, uint64(len(s.Cursors)))
	for _, c := range s.Cursors {
		b = binfmt.AppendString(b, c.PatientID)
		b = binfmt.AppendString(b, c.SessionID)
		b = binary.AppendUvarint(b, c.Len)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Events)))
	for _, e := range s.Events {
		b = binary.AppendUvarint(b, e.Seq)
		b = binfmt.AppendString(b, e.PatientID)
		b = binfmt.AppendString(b, e.SessionID)
		b = binary.AppendUvarint(b, uint64(e.Start))
		b = binary.AppendUvarint(b, uint64(e.N))
		b = append(b, e.Relation)
		b = binfmt.AppendF64(b, e.Distance)
		b = binfmt.AppendF64(b, e.Weight)
		b = binfmt.AppendF64(b, e.EndT)
		b = binfmt.AppendF64(b, e.At)
	}
	return b
}

// appendAnchor serializes a raw-sample anchor: sample count, time,
// position. Records and the snapshot's session manifest share it.
func appendAnchor(b []byte, samples uint64, t float64, pos []float64) []byte {
	b = binfmt.AppendF64(binary.AppendUvarint(b, samples), t)
	b = binary.AppendUvarint(b, uint64(len(pos)))
	for _, x := range pos {
		b = binfmt.AppendF64(b, x)
	}
	return b
}

// decodeAnchor parses what appendAnchor writes.
func decodeAnchor(d *binfmt.Decoder) (samples uint64, t float64, pos []float64) {
	samples, t = d.Uvarint(), d.F64()
	pos = make([]float64, d.Dims())
	for i := range pos {
		pos[i] = d.F64()
	}
	return samples, t, pos
}

// appendOwner serializes who owns a session: its epoch, then its
// followers. Promote records and the snapshot's session manifest share
// it.
func appendOwner(b []byte, epoch uint64, followers []string) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, epoch), uint64(len(followers)))
	for _, f := range followers {
		b = binfmt.AppendString(b, f)
	}
	return b
}

// decodeOwner parses what appendOwner writes. A follower is at least
// one byte (an empty URL).
func decodeOwner(d *binfmt.Decoder) (epoch uint64, followers []string) {
	epoch = d.Uvarint()
	if n := d.Count(1); n > 0 {
		followers = make([]string, n)
		for i := range followers {
			followers[i] = d.Str()
		}
	}
	return epoch, followers
}

// torn marks a decoding failure as a torn record.
func torn(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTorn, err)
}

// decodePayload parses a record payload. It never panics on hostile
// input; anything malformed returns ErrTorn (possibly wrapped).
func decodePayload(b []byte) (Record, error) {
	d := binfmt.NewDecoder(b)
	var rec Record
	rec.Type = Type(d.U8())
	rec.LSN = d.Uvarint()
	switch rec.Type {
	case TypePatientUpsert:
		rec.Patient = decodePatient(&d)
	case TypeStreamOpen:
		rec.PatientID = d.Str()
		rec.SessionID = d.Str()
	case TypeVertexAppend:
		rec.PatientID = d.Str()
		rec.SessionID = d.Str()
		rec.Vertices = d.Sequence()
	case TypeSessionClose:
		rec.SessionID = d.Str()
	case TypeSessionAnchor:
		rec.PatientID = d.Str()
		rec.SessionID = d.Str()
		rec.Samples, rec.AnchorT, rec.AnchorPos = decodeAnchor(&d)
	case TypeReplicaPromote:
		rec.PatientID = d.Str()
		rec.SessionID = d.Str()
		rec.Samples, rec.AnchorT, rec.AnchorPos = decodeAnchor(&d)
		rec.Epoch, rec.Followers = decodeOwner(&d)
	case TypeSubUpsert:
		rec.Sub = decodeSubState(&d)
	case TypeSubDelete:
		rec.SubID = d.Str()
	case TypeSubAck:
		rec.SubID = d.Str()
		rec.SubAck = d.Uvarint()
	case TypeSessionMigrate:
		rec.PatientID = d.Str()
		rec.SessionID = d.Str()
		rec.Target = d.Str()
		rec.Epoch = d.Uvarint()
		rec.Phase = decodePhase(&d)
	default:
		d.Fail(fmt.Errorf("unknown record type %d", rec.Type))
	}
	return rec, torn(d.Finish())
}

// appendPatient serializes the patient fields of a patient-upsert
// record.
func appendPatient(b []byte, p store.PatientInfo) []byte {
	b = binfmt.AppendString(b, p.ID)
	b = binfmt.AppendString(b, p.Class)
	b = binfmt.AppendString(b, p.TumorSite)
	return binary.AppendUvarint(b, uint64(p.Age))
}

// decodePatient parses the patient fields of a patient-upsert record.
func decodePatient(d *binfmt.Decoder) store.PatientInfo {
	return store.PatientInfo{ID: d.Str(), Class: d.Str(), TumorSite: d.Str(), Age: int(d.Uvarint())}
}

// decodePhase reads a migration phase byte, which must name a phase.
func decodePhase(d *binfmt.Decoder) uint8 {
	phase := d.U8()
	if d.Err() == nil && (phase < MigratePrepare || phase > MigrateAbort) {
		d.Fail(fmt.Errorf("invalid migration phase %d", phase))
	}
	return phase
}

// decodeSubState parses what appendSubState writes. A cursor is at
// least three bytes (two empty IDs and a length), an event at least 38
// (five one-byte fields, a relation byte and four floats).
func decodeSubState(d *binfmt.Decoder) *SubState {
	s := &SubState{
		ID:        d.Str(),
		PatientID: d.Str(),
		SessionID: d.Str(),
		Threshold: d.F64(),
		Pattern:   d.Sequence(),
		NextSeq:   d.Uvarint(),
		Delivered: d.Uvarint(),
	}
	s.Cursors = make([]SubCursor, d.Count(3))
	for i := range s.Cursors {
		s.Cursors[i] = SubCursor{PatientID: d.Str(), SessionID: d.Str(), Len: d.Uvarint()}
	}
	s.Events = make([]SubEvent, d.Count(38))
	for i := range s.Events {
		s.Events[i] = SubEvent{
			Seq:       d.Uvarint(),
			PatientID: d.Str(),
			SessionID: d.Str(),
			Start:     d.U32(),
			N:         d.U32(),
			Relation:  d.U8(),
			Distance:  d.F64(),
			Weight:    d.F64(),
			EndT:      d.F64(),
			At:        d.F64(),
		}
	}
	if d.Err() != nil {
		return nil
	}
	return s
}

// appendFrame wraps a payload with the length + CRC framing.
func appendFrame(b, payload []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, frameHeaderLen)...)
	return sealFrame(append(b, payload...), off)
}

// sealFrame fills in the frame header reserved at b[off:] for the
// payload that follows it to the end of b, so an encoder can build a
// payload in place instead of in a buffer of its own.
func sealFrame(b []byte, off int) []byte {
	payload := b[off+frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[off+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// frameLen validates a frame header's payload length.
func frameLen(hdr []byte) (uint32, error) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxPayload {
		return 0, fmt.Errorf("%w: implausible payload length %d", ErrTorn, n)
	}
	return n, nil
}

// checkFrame verifies a payload against its frame header's checksum.
func checkFrame(hdr, payload []byte) error {
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return fmt.Errorf("%w: checksum mismatch", ErrTorn)
	}
	return nil
}

// readFrame reads one framed payload. It returns io.EOF at a clean end
// of input and ErrTorn for a partial or checksum-failing record.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: partial frame header", ErrTorn)
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: partial payload", ErrTorn)
	}
	if err := checkFrame(hdr[:], payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// splitFrame is readFrame over bytes already in memory: it returns the
// first frame's payload, aliasing data, and what follows the frame.
func splitFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: partial frame header", ErrTorn)
	}
	n, err := frameLen(data)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(data)-frameHeaderLen) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: partial payload", ErrTorn)
	}
	payload, rest = data[frameHeaderLen:frameHeaderLen+int(n)], data[frameHeaderLen+int(n):]
	if err := checkFrame(data, payload); err != nil {
		return nil, nil, err
	}
	return payload, rest, nil
}
