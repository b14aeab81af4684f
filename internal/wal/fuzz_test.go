package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"stsmatch/internal/store"
)

// FuzzWALDecode hammers the record decoder with arbitrary bytes
// (mirroring store's FuzzReadBinary): it must never panic or
// over-allocate, must cleanly report torn/corrupt input, and anything
// that decodes must re-encode to an identical payload.
func FuzzWALDecode(f *testing.F) {
	// Seed with a valid frame stream of every record type plus
	// structured mutations of it.
	var stream []byte
	for _, rec := range []Record{
		{Type: TypePatientUpsert, LSN: 1, Patient: store.PatientInfo{ID: "P1", Class: "calm", Age: 50}},
		{Type: TypeStreamOpen, LSN: 2, PatientID: "P1", SessionID: "S1"},
		{Type: TypeVertexAppend, LSN: 3, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(0, 4)},
		{Type: TypeSessionAnchor, LSN: 4, PatientID: "P1", SessionID: "S1", Samples: 120, AnchorT: 4.2, AnchorPos: []float64{7}},
		{Type: TypeSessionClose, LSN: 5, SessionID: "S1"},
		{Type: TypeReplicaPromote, LSN: 7, PatientID: "P1", SessionID: "S1", Samples: 90, AnchorT: 3.1, AnchorPos: []float64{5}, Epoch: 2},
		{Type: TypeSubUpsert, LSN: 9, Sub: &SubState{
			ID: "sub-1", PatientID: "P1", SessionID: "S1", Threshold: 2.5,
			Pattern: mkVerts(0, 3), NextSeq: 4, Delivered: 2,
			Cursors: []SubCursor{{PatientID: "P1", SessionID: "S1", Len: 7}},
			Events: []SubEvent{{Seq: 1, PatientID: "P1", SessionID: "S1", Start: 2, N: 3,
				Relation: 1, Distance: 0.5, Weight: 0.4, EndT: 9.5, At: 100}},
		}},
		{Type: TypeSubDelete, LSN: 10, SubID: "sub-1"},
		{Type: TypeSubAck, LSN: 11, SubID: "sub-1", SubAck: 42},
		{Type: TypeSessionMigrate, LSN: 12, PatientID: "P1", SessionID: "S1",
			Target: "http://b", Epoch: 3, Phase: MigratePrepare},
	} {
		stream = appendFrame(stream, encodePayload(rec))
	}
	f.Add(stream)
	f.Add(appendFrame(nil, []byte{6, 6, 0, 0}))  // the retired type 6 is torn
	f.Add(appendFrame(nil, []byte{8, 8, 9, 24})) // the retired type 8 is torn
	f.Add(stream[:len(stream)/2])
	f.Add(stream[1:])
	f.Add([]byte{})
	f.Add([]byte{3, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame reader must classify every prefix as a valid
		// record, a clean EOF, or a torn record — nothing else.
		r := bytes.NewReader(data)
		for {
			payload, err := readFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTorn) {
					t.Fatalf("readFrame: unexpected error class: %v", err)
				}
				break
			}
			rec, err := decodePayload(payload)
			if err != nil {
				if !errors.Is(err, ErrTorn) {
					t.Fatalf("decodePayload: unexpected error class: %v", err)
				}
				continue
			}
			// Valid records round-trip bit-for-bit.
			if got := encodePayload(rec); !bytes.Equal(got, payload) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, payload)
			}
		}

		// The payload decoder must also survive raw (unframed) bytes.
		if rec, err := decodePayload(data); err == nil {
			if _, err := decodePayload(encodePayload(rec)); err != nil {
				t.Fatalf("re-decode of valid record failed: %v", err)
			}
		} else if !errors.Is(err, ErrTorn) {
			t.Fatalf("decodePayload: unexpected error class: %v", err)
		}
	})
}

// FuzzReplicationBatch hammers the replication batch decoder and the
// follower cursor: malformed batches must fail cleanly as ErrTorn,
// valid ones must round-trip through the canonical encoding (the
// encoder is a fixed point; batch header varints are not CRC-protected,
// but a non-minimal one is refused like any other malformed field),
// and no sequence of Accept calls may
// ever apply records out of order or leave a hole — the core
// gap-detection safety property.
func FuzzReplicationBatch(f *testing.F) {
	open := Record{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"}
	vtx := Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(2, 2)}
	base := Batch{Source: "http://a", SessionID: "S1", PatientID: "P1", Epoch: 1, FirstSeq: 1,
		Records: []Record{vtx, vtx}}
	f.Add(EncodeBatch(base), uint64(0), uint64(0))
	f.Add(EncodeBatch(Batch{SessionID: "S1", Epoch: 2, FirstSeq: 5, Records: []Record{open, vtx}}), uint64(3), uint64(1))
	f.Add(EncodeBatch(Batch{SessionID: "S1", Epoch: 1, FirstSeq: 9, Records: []Record{vtx}}), uint64(3), uint64(1))
	f.Add([]byte("STRB"), uint64(0), uint64(0))
	f.Add([]byte{}, uint64(7), uint64(2))

	f.Fuzz(func(t *testing.T, data []byte, next, epoch uint64) {
		b, err := DecodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("DecodeBatch: unexpected error class: %v", err)
			}
			return
		}
		enc := EncodeBatch(b)
		b2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of valid batch failed: %v", err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("batch changed across canonical round-trip:\n got %+v\nwant %+v", b2, b)
		}
		if again := EncodeBatch(b2); !bytes.Equal(again, enc) {
			t.Fatalf("encoder is not a fixed point:\n got %x\nwant %x", again, enc)
		}

		c := Cursor{Next: next % 64, Epoch: epoch % 8}
		before := c
		apply, err := c.Accept(b)
		if err != nil {
			if !errors.Is(err, ErrGap) && !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("Accept: unexpected error class: %v", err)
			}
			if c != before {
				t.Fatalf("cursor mutated on rejected batch: %+v -> %+v", before, c)
			}
			return
		}
		// Applied records must be strictly increasing, contiguous after
		// each anchor point, and never behind the pre-batch cursor
		// except where a catch-up's stream-open re-anchored it.
		want := before.Next
		if want == 0 {
			want = 1
		}
		for i, rec := range apply {
			if rec.Type == TypeStreamOpen {
				want = rec.LSN + 1
				continue
			}
			if rec.LSN != want {
				t.Fatalf("applied record %d has seq %d, want %d (out of order)", i, rec.LSN, want)
			}
			want++
		}
		if c.Next != want {
			t.Fatalf("cursor advanced to %d, want %d", c.Next, want)
		}
		if c.Epoch != b.Epoch {
			t.Fatalf("cursor epoch %d after accepting epoch %d", c.Epoch, b.Epoch)
		}
	})
}

// FuzzMatchLegCodec hammers both match-leg decoders with the same
// arbitrary bytes: malformed input must fail cleanly as ErrTorn without
// panicking or allocating for counts the input cannot back, a message of
// any version but the current one never decodes, anything that decodes
// must hold the properties the gateway and the shard rely on (finite
// floats, in-range stream indices), and encode→decode is the identity on
// whatever a decoder produced (on values, and the encoder is a fixed
// point). The first seeds are version-2 messages, which must be refused;
// the version-3 seeds after them decode.
func FuzzMatchLegCodec(f *testing.F) {
	req := appendV2Request(legRequestFixture(), v2Scope{})
	rep := appendV2Reply(legReplyFixture(), []string{"P09"}, []v2Holdings{{"P01", 2, 88}, {"P09", 0, 0}})
	for _, seed := range [][]byte{
		req, rep, req[:len(req)/2], rep[:len(rep)-1], rep[1:],
		appendV2Request(MatchLegRequest{Seq: mkVerts(0, 2)}, v2Scope{}),
		appendV2Reply(MatchLegReply{}, nil, nil),
		[]byte("STMQ"), []byte("STMR\x01\x00"), {},
	} {
		f.Add(seed)
	}
	for _, sc := range v2ScopeShapes() {
		f.Add(appendV2Request(legRequestFixture(), sc))
	}
	req3 := AppendMatchLegRequest(nil, legRequestFixture())
	rep3 := AppendMatchLegReply(nil, legReplyFixture())
	for _, seed := range [][]byte{
		req3, rep3, req3[:len(req3)-1], rep3[1:],
		AppendMatchLegRequest(nil, MatchLegRequest{Seq: mkVerts(0, 2)}),
		AppendMatchLegReply(nil, MatchLegReply{}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		current := len(data) >= 6 && binary.LittleEndian.Uint16(data[4:]) == legVersion
		if q, err := DecodeMatchLegRequest(data); err != nil {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("DecodeMatchLegRequest: unexpected error class: %v", err)
			}
		} else {
			for _, v := range q.Seq {
				if !finite(v.T) || !v.State.Valid() || len(v.Pos) != q.Seq.Dims() {
					t.Fatalf("decoded an unusable vertex: %+v", v)
				}
			}
			if !current {
				t.Fatalf("decoded a request of version %d", binary.LittleEndian.Uint16(data[4:]))
			}
			enc := AppendMatchLegRequest(nil, q)
			q2, err := DecodeMatchLegRequest(enc)
			if err != nil || !reflect.DeepEqual(q, q2) {
				t.Fatalf("request changed across round-trip (%v):\n got %+v\nwant %+v", err, q2, q)
			}
			if again := AppendMatchLegRequest(nil, q2); !bytes.Equal(again, enc) {
				t.Fatalf("request encoder is not a fixed point")
			}
		}
		p, err := DecodeMatchLegReply(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("DecodeMatchLegReply: unexpected error class: %v", err)
			}
			return
		}
		if !current {
			t.Fatalf("decoded a reply of version %d", binary.LittleEndian.Uint16(data[4:]))
		}
		if n := len(p.Streams) + len(p.Hits); n > len(data) {
			t.Fatalf("decoded %d elements from %d bytes", n, len(data))
		}
		for _, h := range p.Hits {
			if int(h.Stream) >= len(p.Streams) || !finite(h.Distance) || !finite(h.Weight) {
				t.Fatalf("decoded an unusable hit: %+v (%d streams)", h, len(p.Streams))
			}
		}
		enc := AppendMatchLegReply(nil, p)
		p2, err := DecodeMatchLegReply(enc)
		if err != nil || !reflect.DeepEqual(p, p2) {
			t.Fatalf("reply changed across round-trip (%v):\n got %+v\nwant %+v", err, p2, p)
		}
		if again := AppendMatchLegReply(nil, p2); !bytes.Equal(again, enc) {
			t.Fatalf("reply encoder is not a fixed point")
		}
	})
}

// FuzzSnapshotRead hammers the snapshot decoder with arbitrary bytes: it
// must never panic or allocate more than the input could back, and
// whatever decodes must re-encode to the same bytes.
func FuzzSnapshotRead(f *testing.F) {
	snaps, err := filepath.Glob(filepath.Join(goldenDir, "snap-*.db"))
	if err != nil || len(snaps) == 0 {
		f.Fatalf("golden snapshots %v, %v", snaps, err)
	}
	for _, path := range snaps {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(withReservedByte(f, raw, 1))
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte("STSS\x04\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sf, err := decodeSnapshot(data)
		runtime.ReadMemStats(&after)
		// A stream costs a few hundred bytes of structure for three
		// bytes of input; a count the input cannot back costs megabytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1024*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var enc bytes.Buffer
		enc.Write(appendSnapshotHead(nil, sf.LSN, sf.Sessions, sf.Subs, sf.Migrations))
		if err := sf.DB.WriteBinary(&enc); err != nil {
			t.Fatal(err)
		}
		if got := enc.Bytes(); !bytes.Equal(got, data) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", got, data)
		}
	})
}
