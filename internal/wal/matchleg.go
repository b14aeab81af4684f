// Match-leg wire format: what a gateway and a shard exchange on one
// scatter leg of POST /v1/match. The public API stays JSON; a leg is
// internal to one deployment — gateway and shards ship from one build,
// as replication batches already assume — so it is versioned and an
// unknown version is refused, never guessed at.
//
// Both messages are the batch header (magic, u16 version) followed by
// exactly one CRC-32C frame, built from the record payload primitives
// (uvarint, uvarint-prefixed string, little-endian IEEE float64):
//
//	request  "STMQ" u16 version | frame:
//	         uvarint k | u8 hasNow | f64 now (only when hasNow is 1) |
//	         str patientID | str sessionID | vertices (dims, count, ...)
//
//	reply    "STMR" u16 version | frame:
//	         uvarint streams x (str patientID | str sessionID | u8 relation)
//	         uvarint hits    x (uvarint stream# | uvarint start | uvarint n |
//	                            f64 distance | f64 weight)
//	         str profile     (opaque; empty unless ?debug=profile)
//
// A request is the whole work order for one shard: the query, scored
// against everything the shard holds. A reply carries a shard's result
// the way a funnel produces it: hits that name their stream by position
// in a table, so a stream matched a thousand times ships its identifiers
// once. Version 3 dropped the per-leg scope (only, exclude, require) and
// the refusals and holdings a reply reported against it; a version-1 or
// version-2 message is refused like any other unknown version.
//
// JSON cannot spell NaN or Inf, so nothing behind the JSON route ever
// had to refuse them; this format can carry any bit pattern, and both
// decoders refuse non-finite floats along with everything else that is
// malformed. Every decode error wraps ErrTorn.

package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"stsmatch/internal/plr"
)

// MatchLegContentType marks a /v1/match request body (and the reply to
// it) as the binary leg format rather than the public JSON.
const MatchLegContentType = "application/x-stsmatch-leg"

const (
	legRequestMagic = "STMQ"
	legReplyMagic   = "STMR"
	legVersion      = 3

	// maxLegRelation is the largest relation byte a reply may carry
	// (core.OtherPatient; the WAL does not import the matcher).
	maxLegRelation = 2
)

// MatchLegRequest is the query one leg asks a shard to score against
// everything it holds.
type MatchLegRequest struct {
	K         int
	Now       *float64 // nil: the query's own last vertex time
	PatientID string
	SessionID string
	Seq       plr.Sequence
}

// LegStream is one entry of a reply's stream table.
type LegStream struct {
	PatientID string
	SessionID string
	Relation  uint8
}

// LegHit is one match: its stream's position in the table, the window,
// and the distance and weight exactly as the shard computed them.
type LegHit struct {
	Stream   uint32
	Start    uint32
	N        uint32
	Distance float64
	Weight   float64
}

// MatchLegReply is a shard's answer to one leg.
type MatchLegReply struct {
	Streams []LegStream
	Hits    []LegHit
	Profile []byte
}

// appendLegHeader opens a message and reserves its frame header; the
// returned offset is what sealFrame needs once the payload is written.
func appendLegHeader(b []byte, magic string) ([]byte, int) {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, legVersion)
	off := len(b)
	return append(b, make([]byte, frameHeaderLen)...), off
}

// AppendMatchLegRequest appends the encoding of req to b. req.Seq must
// have passed plr.Sequence.Validate: the vertex encoding takes its
// dimensionality from the first vertex.
func AppendMatchLegRequest(b []byte, req MatchLegRequest) []byte {
	b, off := appendLegHeader(b, legRequestMagic)
	b = binary.AppendUvarint(b, uint64(req.K))
	if req.Now != nil {
		b = appendF64(append(b, 1), *req.Now)
	} else {
		b = append(b, 0)
	}
	b = appendString(b, req.PatientID)
	b = appendString(b, req.SessionID)
	b = appendVertices(b, req.Seq)
	return sealFrame(b, off)
}

// legPayload strips a leg message down to its frame's payload.
func legPayload(data []byte, magic string) ([]byte, error) {
	body, err := checkHeader(data, magic, legVersion)
	if err != nil {
		return nil, err
	}
	payload, rest, err := splitFrame(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s frame", ErrTorn, len(rest), magic)
	}
	return payload, nil
}

// DecodeMatchLegRequest parses and validates a leg request: magic,
// version, CRC, no trailing bytes, k within int, valid state bytes,
// dims and vertex count within the record limits, and every float
// finite. It does not re-run plr.Sequence.Validate (time order); the
// handler does, as it does for JSON.
func DecodeMatchLegRequest(data []byte) (MatchLegRequest, error) {
	var req MatchLegRequest
	payload, err := legPayload(data, legRequestMagic)
	if err != nil {
		return req, err
	}
	d := decoder{b: payload}
	k := d.uvarint()
	hasNow := d.u8()
	if hasNow == 1 {
		now := d.f64()
		req.Now = &now
	}
	req.PatientID = d.str()
	req.SessionID = d.str()
	req.Seq = d.vertices()
	if err := d.finish(); err != nil {
		return req, err
	}
	if k > math.MaxInt || hasNow > 1 {
		return req, fmt.Errorf("%w: invalid k or now flag", ErrTorn)
	}
	req.K = int(k)
	if req.Now != nil && !finite(*req.Now) {
		return req, fmt.Errorf("%w: non-finite now", ErrTorn)
	}
	for i, v := range req.Seq {
		if !finite(v.T) {
			return req, fmt.Errorf("%w: non-finite time at vertex %d", ErrTorn, i)
		}
		for _, x := range v.Pos {
			if !finite(x) {
				return req, fmt.Errorf("%w: non-finite position at vertex %d", ErrTorn, i)
			}
		}
	}
	return req, nil
}

// AppendMatchLegReply appends the encoding of rep to b.
func AppendMatchLegReply(b []byte, rep MatchLegReply) []byte {
	// One growth covers the usual reply: hits at their widest, streams
	// with short identifiers.
	b = slices.Grow(b, 64+len(rep.Hits)*(3*binary.MaxVarintLen32+16)+len(rep.Streams)*48+len(rep.Profile))
	b, off := appendLegHeader(b, legReplyMagic)
	b = binary.AppendUvarint(b, uint64(len(rep.Streams)))
	for _, s := range rep.Streams {
		b = appendString(b, s.PatientID)
		b = appendString(b, s.SessionID)
		b = append(b, s.Relation)
	}
	b = binary.AppendUvarint(b, uint64(len(rep.Hits)))
	for _, h := range rep.Hits {
		b = binary.AppendUvarint(b, uint64(h.Stream))
		b = binary.AppendUvarint(b, uint64(h.Start))
		b = binary.AppendUvarint(b, uint64(h.N))
		b = appendF64(b, h.Distance)
		b = appendF64(b, h.Weight)
	}
	b = binary.AppendUvarint(b, uint64(len(rep.Profile)))
	b = append(b, rep.Profile...)
	return sealFrame(b, off)
}

// DecodeMatchLegReply parses and validates a leg reply: framing as for
// a request, every relation byte known, every hit's stream index inside
// the table, every distance and weight finite. Counts are checked
// against the bytes that remain before anything is allocated for them.
func DecodeMatchLegReply(data []byte) (MatchLegReply, error) {
	var rep MatchLegReply
	payload, err := legPayload(data, legReplyMagic)
	if err != nil {
		return rep, err
	}
	d := decoder{b: payload}
	rep.Streams = make([]LegStream, d.count(3))
	for i := range rep.Streams {
		rep.Streams[i] = LegStream{PatientID: d.str(), SessionID: d.str(), Relation: d.u8()}
	}
	rep.Hits = make([]LegHit, d.count(19))
	for i := range rep.Hits {
		rep.Hits[i] = LegHit{Stream: d.u32(), Start: d.u32(), N: d.u32(), Distance: d.f64(), Weight: d.f64()}
	}
	rep.Profile = []byte(d.str())
	if err := d.finish(); err != nil {
		return rep, err
	}
	for i, s := range rep.Streams {
		if s.Relation > maxLegRelation {
			return rep, fmt.Errorf("%w: stream %d carries relation %d", ErrTorn, i, s.Relation)
		}
	}
	for i, h := range rep.Hits {
		if uint64(h.Stream) >= uint64(len(rep.Streams)) {
			return rep, fmt.Errorf("%w: hit %d names stream %d of %d", ErrTorn, i, h.Stream, len(rep.Streams))
		}
		if !finite(h.Distance) || !finite(h.Weight) {
			return rep, fmt.Errorf("%w: hit %d carries a non-finite distance or weight", ErrTorn, i)
		}
	}
	return rep, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
