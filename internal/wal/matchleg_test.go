package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"stsmatch/internal/plr"
)

func legRequestFixture() MatchLegRequest {
	now := 41.5
	return MatchLegRequest{K: 10, Now: &now, PatientID: "P01", SessionID: "S-P01", Seq: mkVerts(30, 10)}
}

func legReplyFixture() MatchLegReply {
	return MatchLegReply{
		Streams: []LegStream{{"P01", "S-P01", 0}, {"P01", "S-old", 1}, {"P07", "S-P07", 2}},
		Hits: []LegHit{
			{Stream: 2, Start: 14, N: 10, Distance: 0.125, Weight: 0.5},
			{Stream: 0, Start: 3, N: 10, Distance: 0.25, Weight: 0.8},
			{Stream: 1, Start: 1 << 20, N: 10, Distance: 0.25, Weight: 0.4},
		},
		Profile: []byte(`{"traceId":"abc"}`),
	}
}

// v2Scope is a leg's scope as version 2 carried it after the query:
// the patients to score (only) or skip (exclude), and the holdings a
// shard had to prove before scoring one (require). Version 3 carries
// none of it.
type v2Scope struct {
	only, exclude []string
	require       []v2Holdings
}

// v2Holdings is one patient's streams and vertices, as a version-2
// require bound or reply report spelled them.
type v2Holdings struct {
	pid               string
	streams, vertices uint64
}

// v2ScopeShapes is every shape of scope a version-2 leg could carry,
// with identifiers no separator-based encoding could hold.
func v2ScopeShapes() []v2Scope {
	return []v2Scope{
		{},
		{exclude: []string{"P01", "p,with,commas", "p with spaces", "p=eq:colon"}},
		{only: []string{"P02", "ünïcode"}},
		{only: []string{"P03", "P04"}, require: []v2Holdings{{"P03", 2, 117}}},
		{exclude: []string{"P05"}, require: []v2Holdings{{"P06", 1, 0}}},
		{require: []v2Holdings{{"P07", 1 << 40, math.MaxUint64}, {"", 0, 0}}},
	}
}

func appendV2Strings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendV2Holdings(b []byte, hs []v2Holdings) []byte {
	b = binary.AppendUvarint(b, uint64(len(hs)))
	for _, h := range hs {
		b = binary.AppendUvarint(appendString(b, h.pid), h.streams)
		b = binary.AppendUvarint(b, h.vertices)
	}
	return b
}

// appendV2Request encodes req under sc as version 2 did: the version-3
// payload followed by the only, exclude and require lists.
func appendV2Request(req MatchLegRequest, sc v2Scope) []byte {
	b := AppendMatchLegRequest(nil, req)
	b = appendV2Holdings(appendV2Strings(appendV2Strings(b, sc.only), sc.exclude), sc.require)
	b[4] = 2
	return reseal(b)
}

// appendV2Reply encodes rep as version 2 did: the refused and holdings
// lists between the hits and the profile.
func appendV2Reply(rep MatchLegReply, refused []string, fresh []v2Holdings) []byte {
	profile := rep.Profile
	rep.Profile = nil
	b := AppendMatchLegReply(nil, rep)
	b = appendV2Holdings(appendV2Strings(b[:len(b)-1], refused), fresh) // b ended with the empty profile
	b = appendString(b, string(profile))
	b[4] = 2
	return reseal(b)
}

func TestMatchLegRoundTrip(t *testing.T) {
	req := legRequestFixture()
	got, err := DecodeMatchLegRequest(AppendMatchLegRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("request changed across the wire:\n got %+v\nwant %+v", got, req)
	}
	// No now, no provenance, threshold mode: the ad-hoc query.
	bare := MatchLegRequest{Seq: mkVerts(0, 2)}
	if got, err = DecodeMatchLegRequest(AppendMatchLegRequest(nil, bare)); err != nil || !reflect.DeepEqual(got, bare) {
		t.Errorf("bare request: got %+v, %v; want %+v", got, err, bare)
	}

	rep := legReplyFixture()
	gotRep, err := DecodeMatchLegReply(AppendMatchLegReply(nil, rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRep, rep) {
		t.Errorf("reply changed across the wire:\n got %+v\nwant %+v", gotRep, rep)
	}
	empty, err := DecodeMatchLegReply(AppendMatchLegReply(nil, MatchLegReply{}))
	if err != nil || len(empty.Streams)+len(empty.Hits)+len(empty.Profile) != 0 {
		t.Errorf("empty reply: got %+v, %v", empty, err)
	}
}

// TestMatchLegScopeCodec: version 3 dropped the leg scope. A version-2
// leg under every shape of scope it could carry, a version-2 reply with
// the refusals and holdings it reported, and a version-1 leg are each
// refused as ErrTorn naming their version; the version-3 leg of the
// same query, and its reply, round-trip.
func TestMatchLegScopeCodec(t *testing.T) {
	refused := func(name string, decode func([]byte) error, msg []byte, version int) {
		t.Helper()
		err := decode(msg)
		if !errors.Is(err, ErrTorn) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			t.Errorf("%s: err = %v, want ErrTorn naming version %d", name, err, version)
		}
	}
	decodeReq := func(b []byte) error { _, err := DecodeMatchLegRequest(b); return err }
	decodeRep := func(b []byte) error { _, err := DecodeMatchLegReply(b); return err }
	for i, sc := range v2ScopeShapes() {
		refused(fmt.Sprintf("v2 request, shape %d", i), decodeReq, appendV2Request(legRequestFixture(), sc), 2)
	}
	refused("v2 reply", decodeRep, appendV2Reply(legReplyFixture(), []string{"P09"}, []v2Holdings{{"P01", 2, 88}, {"P09", 0, 0}}), 2)
	v1 := AppendMatchLegRequest(nil, legRequestFixture())
	v1[4] = 1
	refused("v1 request", decodeReq, reseal(v1), 1)

	req := legRequestFixture()
	msg := AppendMatchLegRequest(nil, req)
	if v := binary.LittleEndian.Uint16(msg[4:]); v != 3 {
		t.Fatalf("leg encodes as version %d, want 3", v)
	}
	if got, err := DecodeMatchLegRequest(msg); err != nil || !reflect.DeepEqual(got, req) {
		t.Errorf("v3 request: got %+v, %v; want %+v", got, err, req)
	}
	rep := legReplyFixture()
	if got, err := DecodeMatchLegReply(AppendMatchLegReply(nil, rep)); err != nil || !reflect.DeepEqual(got, rep) {
		t.Errorf("v3 reply: got %+v, %v; want %+v", got, err, rep)
	}
}

// reseal recomputes a mutated message's frame header, so a decoder
// under test gets past the CRC to the field that was changed.
func reseal(msg []byte) []byte {
	const off = 6 // magic + version
	payload := msg[off+frameHeaderLen:]
	binary.LittleEndian.PutUint32(msg[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(msg[off+4:], crc32.Checksum(payload, castagnoli))
	return msg
}

// TestMatchLegDecodersRefuse: the binary leg can carry what JSON never
// could, and each decoder refuses all of it as ErrTorn.
func TestMatchLegDecodersRefuse(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	withSeq := func(edit func(plr.Sequence)) []byte {
		req := legRequestFixture()
		edit(req.Seq)
		return AppendMatchLegRequest(nil, req)
	}
	okReq := AppendMatchLegRequest(nil, legRequestFixture())
	requests := map[string][]byte{
		"empty":           nil,
		"bad magic":       append([]byte("STRB"), okReq[4:]...),
		"unknown version": reseal(append(append([]byte("STMQ"), 4, 0), okReq[6:]...)),
		"reply magic":     AppendMatchLegReply(nil, legReplyFixture()),
		"bad crc":         append(append([]byte{}, okReq[:len(okReq)-1]...), okReq[len(okReq)-1]^1),
		"truncated":       okReq[:len(okReq)-3],
		"trailing bytes":  append(append([]byte{}, okReq...), 0),
		"trailing inside": reseal(append(append([]byte{}, okReq...), 0)),
		"NaN time":        withSeq(func(s plr.Sequence) { s[3].T = nan }),
		"Inf time":        withSeq(func(s plr.Sequence) { s[9].T = inf }),
		"NaN position":    withSeq(func(s plr.Sequence) { s[0].Pos[0] = nan }),
		"-Inf position":   withSeq(func(s plr.Sequence) { s[5].Pos[0] = math.Inf(-1) }),
		"invalid state":   withSeq(func(s plr.Sequence) { s[2].State = plr.IRR + 1 }),
		"NaN now":         AppendMatchLegRequest(nil, MatchLegRequest{Now: &nan, Seq: mkVerts(0, 2)}),
	}
	// Dims and vertex counts beyond the record limits: hand-built, since
	// the encoder cannot be made to claim them.
	huge := func(dims, n uint64) []byte {
		b, off := appendLegHeader(nil, legRequestMagic)
		b = append(binary.AppendUvarint(b, 1), 0)
		b = appendString(appendString(b, ""), "")
		b = binary.AppendUvarint(binary.AppendUvarint(b, dims), n)
		return sealFrame(b, off)
	}
	requests["dims beyond maxDims"] = huge(maxDims+1, 2)
	requests["vertices beyond maxVertices"] = huge(1, maxVertices+1)
	for name, msg := range requests {
		if _, err := DecodeMatchLegRequest(msg); !errors.Is(err, ErrTorn) {
			t.Errorf("request %s: err = %v, want ErrTorn", name, err)
		}
	}

	withReply := func(edit func(*MatchLegReply)) []byte {
		rep := legReplyFixture()
		edit(&rep)
		return AppendMatchLegReply(nil, rep)
	}
	okRep := AppendMatchLegReply(nil, legReplyFixture())
	hugeCount := func() []byte {
		b, off := appendLegHeader(nil, legReplyMagic)
		return sealFrame(binary.AppendUvarint(b, 1<<40), off)
	}
	replies := map[string][]byte{
		"empty":               nil,
		"request magic":       okReq,
		"unknown version":     reseal(append(append([]byte("STMR"), 9, 0), okRep[6:]...)),
		"bad crc":             append(append([]byte{}, okRep[:20]...), append([]byte{okRep[20] ^ 0x40}, okRep[21:]...)...),
		"truncated":           okRep[:len(okRep)/2],
		"trailing bytes":      append(append([]byte{}, okRep...), 7),
		"NaN distance":        withReply(func(r *MatchLegReply) { r.Hits[1].Distance = nan }),
		"Inf weight":          withReply(func(r *MatchLegReply) { r.Hits[0].Weight = inf }),
		"stream out of range": withReply(func(r *MatchLegReply) { r.Hits[2].Stream = 3 }),
		"unknown relation":    withReply(func(r *MatchLegReply) { r.Streams[0].Relation = 3 }),
		"count beyond bytes":  hugeCount(),
	}
	for name, msg := range replies {
		if _, err := DecodeMatchLegReply(msg); !errors.Is(err, ErrTorn) {
			t.Errorf("reply %s: err = %v, want ErrTorn", name, err)
		}
	}
}

// TestAppendFrameEqualsSealFrame: the in-place framing the leg encoders
// use is the record framing, byte for byte.
func TestAppendFrameEqualsSealFrame(t *testing.T) {
	payload := encodePayload(Record{Type: TypeVertexAppend, LSN: 3, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(0, 4)})
	want := appendFrame([]byte("prefix"), payload)
	b := append([]byte("prefix"), make([]byte, frameHeaderLen)...)
	if got := sealFrame(append(b, payload...), len("prefix")); !bytes.Equal(got, want) {
		t.Errorf("sealFrame = %x, appendFrame = %x", got, want)
	}
	got, rest, err := splitFrame(want[len("prefix"):])
	if err != nil || !bytes.Equal(got, payload) || len(rest) != 0 {
		t.Errorf("splitFrame = %x, %x, %v", got, rest, err)
	}
}
