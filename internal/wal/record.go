package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// Type identifies a WAL record. The first four are the store/session
// mutations named in the durability design; SessionAnchor additionally
// persists each ingest batch's raw-sample anchor so a recovered
// session predicts from exactly the pre-crash observation.
type Type uint8

// The WAL record types.
const (
	TypePatientUpsert Type = 1 // patient created (or metadata updated)
	TypeStreamOpen    Type = 2 // session stream created under a patient
	TypeVertexAppend  Type = 3 // PLR vertices appended to a stream
	TypeSessionClose  Type = 4 // ingestion session closed
	TypeSessionAnchor Type = 5 // latest raw observation of an open session

	// Replication record types (PR 5). They ride both in replication
	// batches (internal/wal Batch) and in follower WALs, so recovery
	// and the fuzzers handle them like any other record.

	// TypeReplicaSnapshot carries one session's full replicated state:
	// patient info, the complete PLR sequence, and the raw-sample
	// anchor. A primary sends it to a follower whose cursor has a gap
	// (catch-up) and as the first record of a post-promotion stream; a
	// follower journals it so its own recovery rebuilds the stream
	// without reopening the session locally.
	TypeReplicaSnapshot Type = 6

	// TypeReplicaPromote marks a failover: the node journaling it was
	// promoted from replica to primary for the session. Recovery treats
	// it like a session-open with the embedded anchor, so a promoted
	// node that crashes later still resumes the session as primary.
	// Epoch fences zombie primaries: batches with a lower epoch are
	// rejected by followers.
	TypeReplicaPromote Type = 7

	// typeRetiredIndex is retired: it carried the window-signature index
	// configuration (PR 7's TypeIndexConfig) while a shard could serve
	// the index. Nothing writes it any more and the number is never
	// reused, but a data dir that ran with the index on still holds one,
	// so it decodes — its payload skipped — and replay passes over it;
	// answering ErrTorn would make recovery cut the log off there.
	typeRetiredIndex Type = 8

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
	// threshold/k, per-stream cursors, event numbering and any
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
	case TypeReplicaSnapshot:
		return "replica-snapshot"
	case TypeReplicaPromote:
		return "replica-promote"
	case typeRetiredIndex:
		return "retired-index-config"
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

	Patient   store.PatientInfo // TypePatientUpsert, TypeReplicaSnapshot
	PatientID string            // TypeStreamOpen, TypeVertexAppend, TypeSessionAnchor, TypeReplicaSnapshot, TypeReplicaPromote
	SessionID string            // all but TypePatientUpsert
	Vertices  plr.Sequence      // TypeVertexAppend, TypeReplicaSnapshot

	Samples   uint64    // TypeSessionAnchor, TypeReplicaSnapshot, TypeReplicaPromote
	AnchorT   float64   // TypeSessionAnchor, TypeReplicaSnapshot, TypeReplicaPromote
	AnchorPos []float64 // TypeSessionAnchor, TypeReplicaSnapshot, TypeReplicaPromote

	// Epoch is the replication fencing term (TypeReplicaPromote): each
	// promotion increments it, and followers reject batches from lower
	// epochs so a deposed primary cannot overwrite a promoted one.
	Epoch uint64 // TypeReplicaPromote, TypeSessionMigrate

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
	K         uint32
	Pattern   plr.Sequence

	NextSeq   uint64 // next event sequence number (1-based)
	Delivered uint64 // delivery high-water mark (consumer-acked)
	Cursors   []SubCursor
	Events    []SubEvent // emitted, not yet acknowledged
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
// with strings as uvarint length + bytes and float64s as little-endian
// IEEE words (the same primitives as the store binary format).
const (
	frameHeaderLen = 8
	maxPayload     = 1 << 26 // 64 MiB: far above any real record
	maxString      = 1 << 20
	maxVertices    = 1 << 24
	maxDims        = 64
	maxSubCursors  = 1 << 20
	maxSubEvents   = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodePayload serializes a record payload (without framing).
func encodePayload(rec Record) []byte {
	b := make([]byte, 0, 64+len(rec.Vertices)*24)
	b = append(b, byte(rec.Type))
	b = binary.AppendUvarint(b, rec.LSN)
	switch rec.Type {
	case TypePatientUpsert:
		b = appendString(b, rec.Patient.ID)
		b = appendString(b, rec.Patient.Class)
		b = appendString(b, rec.Patient.TumorSite)
		b = binary.AppendUvarint(b, uint64(rec.Patient.Age))
	case TypeStreamOpen:
		b = appendString(b, rec.PatientID)
		b = appendString(b, rec.SessionID)
	case TypeVertexAppend:
		b = appendString(b, rec.PatientID)
		b = appendString(b, rec.SessionID)
		b = appendVertices(b, rec.Vertices)
	case TypeSessionClose:
		b = appendString(b, rec.SessionID)
	case TypeSessionAnchor:
		b = appendString(b, rec.PatientID)
		b = appendString(b, rec.SessionID)
		b = appendAnchor(b, rec)
	case TypeReplicaSnapshot:
		b = appendString(b, rec.Patient.ID)
		b = appendString(b, rec.Patient.Class)
		b = appendString(b, rec.Patient.TumorSite)
		b = binary.AppendUvarint(b, uint64(rec.Patient.Age))
		b = appendString(b, rec.PatientID)
		b = appendString(b, rec.SessionID)
		b = appendVertices(b, rec.Vertices)
		b = appendAnchor(b, rec)
	case TypeReplicaPromote:
		b = appendString(b, rec.PatientID)
		b = appendString(b, rec.SessionID)
		b = appendAnchor(b, rec)
		b = binary.AppendUvarint(b, rec.Epoch)
	case TypeSubUpsert:
		b = appendSubState(b, rec.Sub)
	case TypeSubDelete:
		b = appendString(b, rec.SubID)
	case TypeSubAck:
		b = appendString(b, rec.SubID)
		b = binary.AppendUvarint(b, rec.SubAck)
	case TypeSessionMigrate:
		b = appendString(b, rec.PatientID)
		b = appendString(b, rec.SessionID)
		b = appendString(b, rec.Target)
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
	b = appendString(b, s.ID)
	b = appendString(b, s.PatientID)
	b = appendString(b, s.SessionID)
	b = appendF64(b, s.Threshold)
	b = binary.AppendUvarint(b, uint64(s.K))
	b = appendVertices(b, s.Pattern)
	b = binary.AppendUvarint(b, s.NextSeq)
	b = binary.AppendUvarint(b, s.Delivered)
	b = binary.AppendUvarint(b, uint64(len(s.Cursors)))
	for _, c := range s.Cursors {
		b = appendString(b, c.PatientID)
		b = appendString(b, c.SessionID)
		b = binary.AppendUvarint(b, c.Len)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Events)))
	for _, e := range s.Events {
		b = binary.AppendUvarint(b, e.Seq)
		b = appendString(b, e.PatientID)
		b = appendString(b, e.SessionID)
		b = binary.AppendUvarint(b, uint64(e.Start))
		b = binary.AppendUvarint(b, uint64(e.N))
		b = append(b, e.Relation)
		b = appendF64(b, e.Distance)
		b = appendF64(b, e.Weight)
		b = appendF64(b, e.EndT)
		b = appendF64(b, e.At)
	}
	return b
}

// appendVertices serializes a PLR sequence (dims, count, vertices):
// the shared trailer of vertex-append and replica-snapshot records.
func appendVertices(b []byte, vs plr.Sequence) []byte {
	dims := vs.Dims()
	b = binary.AppendUvarint(b, uint64(dims))
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v.T)
		b = append(b, byte(v.State))
		for d := 0; d < dims; d++ {
			b = appendF64(b, v.Pos[d])
		}
	}
	return b
}

// appendAnchor serializes the raw-sample anchor triple.
func appendAnchor(b []byte, rec Record) []byte {
	b = binary.AppendUvarint(b, rec.Samples)
	b = appendF64(b, rec.AnchorT)
	b = binary.AppendUvarint(b, uint64(len(rec.AnchorPos)))
	for _, x := range rec.AnchorPos {
		b = appendF64(b, x)
	}
	return b
}

// decodePayload parses a record payload. It never panics on hostile
// input; anything malformed returns ErrTorn (possibly wrapped).
func decodePayload(b []byte) (Record, error) {
	d := decoder{b: b}
	var rec Record
	rec.Type = Type(d.u8())
	rec.LSN = d.uvarint()
	switch rec.Type {
	case TypePatientUpsert:
		rec.Patient.ID = d.str()
		rec.Patient.Class = d.str()
		rec.Patient.TumorSite = d.str()
		rec.Patient.Age = int(d.uvarint())
	case TypeStreamOpen:
		rec.PatientID = d.str()
		rec.SessionID = d.str()
	case TypeVertexAppend:
		rec.PatientID = d.str()
		rec.SessionID = d.str()
		rec.Vertices = d.vertices()
	case TypeSessionClose:
		rec.SessionID = d.str()
	case TypeSessionAnchor:
		rec.PatientID = d.str()
		rec.SessionID = d.str()
		d.anchor(&rec)
	case TypeReplicaSnapshot:
		rec.Patient.ID = d.str()
		rec.Patient.Class = d.str()
		rec.Patient.TumorSite = d.str()
		rec.Patient.Age = int(d.uvarint())
		rec.PatientID = d.str()
		rec.SessionID = d.str()
		rec.Vertices = d.vertices()
		d.anchor(&rec)
	case TypeReplicaPromote:
		rec.PatientID = d.str()
		rec.SessionID = d.str()
		d.anchor(&rec)
		rec.Epoch = d.uvarint()
	case typeRetiredIndex:
		d.off = len(d.b)
	case TypeSubUpsert:
		rec.Sub = d.subState()
	case TypeSubDelete:
		rec.SubID = d.str()
	case TypeSubAck:
		rec.SubID = d.str()
		rec.SubAck = d.uvarint()
	case TypeSessionMigrate:
		rec.PatientID = d.str()
		rec.SessionID = d.str()
		rec.Target = d.str()
		rec.Epoch = d.uvarint()
		rec.Phase = d.u8()
		if d.err == nil && (rec.Phase < MigratePrepare || rec.Phase > MigrateAbort) {
			return rec, fmt.Errorf("%w: invalid migration phase %d", ErrTorn, rec.Phase)
		}
	default:
		return rec, fmt.Errorf("%w: unknown record type %d", ErrTorn, rec.Type)
	}
	return rec, d.finish()
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

// decoder is a bounds-checked cursor over a payload; the first failure
// sticks so call sites can read fields linearly and check once.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = fmt.Errorf("%w: short payload", ErrTorn)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad uvarint", ErrTorn)
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and refuses one the rest of the payload
// could not hold at minSize bytes an element, so a caller may allocate
// exactly that many.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64((len(d.b)-d.off)/minSize) {
		d.err = fmt.Errorf("%w: count %d exceeds the payload", ErrTorn, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// finish reports the first decoding failure, or bytes left over.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrTorn, len(d.b)-d.off)
	}
	return nil
}

// u32 reads a uvarint that must fit in 32 bits; larger values could
// not round-trip and are torn.
func (d *decoder) u32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > math.MaxUint32 {
		d.err = fmt.Errorf("%w: value %d overflows u32", ErrTorn, v)
	}
	return uint32(v)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.err = fmt.Errorf("%w: short float", ErrTorn)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// vertices parses a serialized PLR sequence (appendVertices inverse).
func (d *decoder) vertices() plr.Sequence {
	dims := d.uvarint()
	if d.err == nil && dims > maxDims {
		d.err = fmt.Errorf("%w: implausible vertex dims %d", ErrTorn, dims)
	}
	// A vertex is 9+8*dims bytes: a count the payload cannot hold is
	// refused before anything is sized by it (count reads nothing once an
	// error is latched).
	n := d.count(9 + 8*int(dims))
	if d.err == nil && n > maxVertices {
		d.err = fmt.Errorf("%w: implausible vertex count %d", ErrTorn, n)
	}
	if d.err != nil {
		return nil
	}
	if n == 0 && dims != 0 {
		// The encoder derives dims from the sequence, so an empty batch
		// always carries dims 0; anything else cannot round-trip.
		d.err = fmt.Errorf("%w: empty vertex batch with dims %d", ErrTorn, dims)
		return nil
	}
	// The positions share one array.
	vs, pos := make(plr.Sequence, n), make([]float64, n*int(dims))
	for i := range vs {
		v := plr.Vertex{T: d.f64(), State: plr.State(d.u8()), Pos: pos[:dims:dims]}
		if !v.State.Valid() {
			d.err = fmt.Errorf("%w: invalid state byte", ErrTorn)
			return nil
		}
		for j := range v.Pos {
			v.Pos[j] = d.f64()
		}
		vs[i], pos = v, pos[dims:]
	}
	return vs
}

// subState parses a serialized subscription state (appendSubState
// inverse).
func (d *decoder) subState() *SubState {
	s := &SubState{
		ID:        d.str(),
		PatientID: d.str(),
		SessionID: d.str(),
		Threshold: d.f64(),
		K:         d.u32(),
		Pattern:   d.vertices(),
		NextSeq:   d.uvarint(),
		Delivered: d.uvarint(),
	}
	nc := d.uvarint()
	if d.err != nil {
		return nil
	}
	if nc > maxSubCursors {
		d.err = fmt.Errorf("%w: implausible cursor count %d", ErrTorn, nc)
		return nil
	}
	s.Cursors = make([]SubCursor, 0, min(int(nc), 4096))
	for i := uint64(0); i < nc && d.err == nil; i++ {
		s.Cursors = append(s.Cursors, SubCursor{
			PatientID: d.str(),
			SessionID: d.str(),
			Len:       d.uvarint(),
		})
	}
	ne := d.uvarint()
	if d.err != nil {
		return nil
	}
	if ne > maxSubEvents {
		d.err = fmt.Errorf("%w: implausible event count %d", ErrTorn, ne)
		return nil
	}
	s.Events = make([]SubEvent, 0, min(int(ne), 4096))
	for i := uint64(0); i < ne && d.err == nil; i++ {
		s.Events = append(s.Events, SubEvent{
			Seq:       d.uvarint(),
			PatientID: d.str(),
			SessionID: d.str(),
			Start:     d.u32(),
			N:         d.u32(),
			Relation:  d.u8(),
			Distance:  d.f64(),
			Weight:    d.f64(),
			EndT:      d.f64(),
			At:        d.f64(),
		})
	}
	if d.err != nil {
		return nil
	}
	return s
}

// anchor parses the raw-sample anchor triple (appendAnchor inverse).
func (d *decoder) anchor(rec *Record) {
	rec.Samples = d.uvarint()
	rec.AnchorT = d.f64()
	dims := d.uvarint()
	if d.err != nil {
		return
	}
	if dims > maxDims {
		d.err = fmt.Errorf("%w: implausible anchor dims %d", ErrTorn, dims)
		return
	}
	rec.AnchorPos = make([]float64, dims)
	for i := range rec.AnchorPos {
		rec.AnchorPos[i] = d.f64()
	}
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxString || d.off+int(n) > len(d.b) {
		d.err = fmt.Errorf("%w: bad string length %d", ErrTorn, n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
