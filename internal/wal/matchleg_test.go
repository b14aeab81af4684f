package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"stsmatch/internal/plr"
)

func legRequestFixture() MatchLegRequest {
	now := 41.5
	return MatchLegRequest{K: 10, Now: &now, PatientID: "P01", SessionID: "S-P01", Seq: mkVerts(30, 10)}
}

// legScopeShapes is the fixture query under every shape of scope a leg
// can carry, with identifiers no separator-based encoding could hold.
func legScopeShapes() []MatchLegRequest {
	shapes := []MatchLegRequest{
		{},
		{Exclude: []string{"P01", "p,with,commas", "p with spaces", "p=eq:colon"}},
		{Only: []string{"P02", "ünïcode"}},
		{Only: []string{"P03", "P04"}, Require: []LegFreshness{{"P03", 2, 117}}},
		{Exclude: []string{"P05"}, Require: []LegFreshness{{"P06", 1, 0}}},
		{Require: []LegFreshness{{"P07", 1 << 40, math.MaxUint64}, {"", 0, 0}}},
	}
	for i := range shapes {
		req := legRequestFixture()
		req.Only, req.Exclude, req.Require = shapes[i].Only, shapes[i].Exclude, shapes[i].Require
		shapes[i] = req
	}
	return shapes
}

func legReplyFixture() MatchLegReply {
	return MatchLegReply{
		Streams: []LegStream{{"P01", "S-P01", 0}, {"P01", "S-old", 1}, {"P07", "S-P07", 2}},
		Hits: []LegHit{
			{Stream: 2, Start: 14, N: 10, Distance: 0.125, Weight: 0.5},
			{Stream: 0, Start: 3, N: 10, Distance: 0.25, Weight: 0.8},
			{Stream: 1, Start: 1 << 20, N: 10, Distance: 0.25, Weight: 0.4},
		},
		Refused:   []string{"P09"},
		Freshness: []LegFreshness{{"P01", 2, 88}, {"P09", 0, 0}},
		Profile:   []byte(`{"traceId":"abc"}`),
	}
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
	if err != nil || len(empty.Streams)+len(empty.Hits)+len(empty.Refused)+len(empty.Freshness)+len(empty.Profile) != 0 {
		t.Errorf("empty reply: got %+v, %v", empty, err)
	}
}

// TestMatchLegScopeCodec: every shape of scope survives the wire, and
// the decoder refuses a leg scoped by both Only and Exclude, a scope
// list whose count the remaining bytes cannot back, and a version-1 leg
// (which carried its scope in headers).
func TestMatchLegScopeCodec(t *testing.T) {
	for i, req := range legScopeShapes() {
		got, err := DecodeMatchLegRequest(AppendMatchLegRequest(nil, req))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("shape %d: got %+v, %v; want %+v", i, got, err, req)
		}
	}
	both := legRequestFixture()
	both.Only, both.Exclude = []string{"P01"}, []string{"P02"}
	// A request whose Require count claims more entries than bytes follow.
	b, off := appendLegHeader(nil, legRequestMagic)
	b = append(binary.AppendUvarint(b, 1), 0)
	b = appendString(appendString(b, ""), "")
	b = appendVertices(b, mkVerts(0, 2))
	b = binary.AppendUvarint(binary.AppendUvarint(b, 0), 0)
	hugeCount := sealFrame(binary.AppendUvarint(b, 1<<40), off)
	v1 := AppendMatchLegRequest(nil, legRequestFixture())
	v1[4] = 1
	for name, msg := range map[string][]byte{
		"only and exclude":   AppendMatchLegRequest(nil, both),
		"count beyond bytes": hugeCount,
		"version 1":          reseal(v1),
	} {
		if _, err := DecodeMatchLegRequest(msg); !errors.Is(err, ErrTorn) {
			t.Errorf("%s: err = %v, want ErrTorn", name, err)
		}
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
		"unknown version": reseal(append(append([]byte("STMQ"), 3, 0), okReq[6:]...)),
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
