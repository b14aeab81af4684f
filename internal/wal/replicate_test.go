package wal

import (
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

func mkBatch(session string, epoch, firstSeq uint64, recs ...Record) Batch {
	return Batch{
		Source:    "http://primary",
		SessionID: session,
		PatientID: "P1",
		Epoch:     epoch,
		FirstSeq:  firstSeq,
		Records:   recs,
	}
}

func vertexRec(n int) Record {
	return Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: mkVerts(float64(n), 2)}
}

func TestBatchRoundTrip(t *testing.T) {
	b := mkBatch("S1", 3, 17,
		Record{Type: TypePatientUpsert, Patient: store.PatientInfo{ID: "P1", Class: "calm", Age: 61}},
		Record{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"},
		vertexRec(0),
		Record{Type: TypeSessionAnchor, PatientID: "P1", SessionID: "S1", Samples: 9, AnchorT: 1.5, AnchorPos: []float64{2}},
		Record{Type: TypeReplicaPromote, PatientID: "P1", SessionID: "S1", Samples: 12, AnchorT: 2.5, AnchorPos: []float64{4}, Epoch: 3},
	)
	got, err := DecodeBatch(EncodeBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != b.Source || got.SessionID != b.SessionID || got.PatientID != b.PatientID ||
		got.Epoch != b.Epoch || got.FirstSeq != b.FirstSeq || len(got.Records) != len(b.Records) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, rec := range got.Records {
		if rec.LSN != b.FirstSeq+uint64(i) {
			t.Errorf("record %d seq %d, want %d", i, rec.LSN, b.FirstSeq+uint64(i))
		}
		if rec.Type != b.Records[i].Type {
			t.Errorf("record %d type %v, want %v", i, rec.Type, b.Records[i].Type)
		}
	}
	if got.Records[4].Epoch != 3 {
		t.Errorf("promote epoch %d, want 3", got.Records[5].Epoch)
	}
}

// TestBatchVersion2Refused: testdata/batch-v2.bin is a catch-up as an
// earlier build shipped it, at batch version 2 and led by a record of
// the retired type 6. It is refused whole as another version, never
// read as records of this one.
func TestBatchVersion2Refused(t *testing.T) {
	raw, err := os.ReadFile("testdata/batch-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := DecodeBatch(raw); !errors.Is(err, binfmt.ErrVersion) {
		t.Fatalf("DecodeBatch = %d records, %v; want binfmt.ErrVersion", len(b.Records), err)
	}
}

func TestBatchDecodeRejectsCorruption(t *testing.T) {
	enc := EncodeBatch(mkBatch("S1", 1, 1, vertexRec(0), vertexRec(1)))
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)-3] },
		"bad magic":     func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"flipped byte":  func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b },
		"trailing junk": func(b []byte) []byte { return append(b, 0xAB) },
	} {
		buf := append([]byte(nil), enc...)
		if _, err := DecodeBatch(mutate(buf)); !errors.Is(err, ErrTorn) {
			t.Errorf("%s: err = %v, want ErrTorn", name, err)
		}
	}
}

func TestBatchDecodeRejectsNonDenseSequence(t *testing.T) {
	// Replace the encoder-assigned second frame (seq 2) with one
	// carrying seq 3, leaving a hole the decoder must catch.
	good := mkBatch("S1", 1, 1, vertexRec(0), vertexRec(1))
	enc := EncodeBatch(good)
	rogue := good.Records[1]
	rogue.LSN = 2
	prefixLen := len(enc) - (frameHeaderLen + len(encodePayload(rogue)))
	rogue.LSN = 3
	spliced := append(enc[:prefixLen:prefixLen], appendFrame(nil, encodePayload(rogue))...)
	if _, err := DecodeBatch(spliced); !errors.Is(err, ErrTorn) {
		t.Fatalf("non-dense batch accepted: %v", err)
	}
}

func TestCursorAcceptContiguous(t *testing.T) {
	var c Cursor
	apply, err := c.Accept(mkBatch("S1", 1, 1, vertexRec(0), vertexRec(1)))
	if err != nil || len(apply) != 2 {
		t.Fatalf("apply = %d records, err %v", len(apply), err)
	}
	if c.Next != 3 {
		t.Fatalf("cursor at %d, want 3", c.Next)
	}
	apply, err = c.Accept(mkBatch("S1", 1, 3, vertexRec(2)))
	if err != nil || len(apply) != 1 || c.Next != 4 {
		t.Fatalf("second batch: apply %d, next %d, err %v", len(apply), c.Next, err)
	}
}

func TestCursorSkipsDuplicates(t *testing.T) {
	c := Cursor{Next: 3, Epoch: 1}
	// Batch 1..4 overlaps: 1,2 already applied, 3,4 are new.
	apply, err := c.Accept(mkBatch("S1", 1, 1, vertexRec(0), vertexRec(1), vertexRec(2), vertexRec(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(apply) != 2 || apply[0].LSN != 3 || apply[1].LSN != 4 {
		t.Fatalf("apply = %+v, want seqs 3,4", apply)
	}
	if c.Next != 5 {
		t.Fatalf("cursor at %d, want 5", c.Next)
	}
}

func TestCursorRejectsGap(t *testing.T) {
	c := Cursor{Next: 3, Epoch: 1}
	if _, err := c.Accept(mkBatch("S1", 1, 5, vertexRec(4))); !errors.Is(err, ErrGap) {
		t.Fatalf("gap accepted: %v", err)
	}
	if c.Next != 3 || c.Epoch != 1 {
		t.Fatalf("cursor mutated on rejected batch: %+v", c)
	}
}

func TestCursorStreamOpenResets(t *testing.T) {
	c := Cursor{Next: 3, Epoch: 1}
	open := Record{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"}
	// Catch-up after a gap: its stream-open at seq 9 re-anchors, the
	// records behind it apply.
	apply, err := c.Accept(mkBatch("S1", 1, 9, open, vertexRec(5)))
	if err != nil || len(apply) != 2 {
		t.Fatalf("apply %d, err %v", len(apply), err)
	}
	if c.Next != 11 {
		t.Fatalf("cursor at %d, want 11", c.Next)
	}
}

func TestCursorEpochFencing(t *testing.T) {
	c := Cursor{Next: 7, Epoch: 2}

	// A deposed primary (epoch 1) is rejected outright, even with
	// plausible sequence numbers.
	if _, err := c.Accept(mkBatch("S1", 1, 7, vertexRec(0))); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch accepted: %v", err)
	}

	// A new primary (epoch 3) must lead with a catch-up; bare records
	// cannot anchor its fresh numbering.
	if _, err := c.Accept(mkBatch("S1", 3, 1, vertexRec(0))); !errors.Is(err, ErrGap) {
		t.Fatalf("epoch jump without catch-up accepted: %v", err)
	}
	if c.Epoch != 2 {
		t.Fatalf("epoch committed on rejected batch: %d", c.Epoch)
	}

	// With a catch-up it goes through and the epoch advances.
	open := Record{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"}
	apply, err := c.Accept(mkBatch("S1", 3, 1, open, vertexRec(1)))
	if err != nil || len(apply) != 2 {
		t.Fatalf("promoted primary rejected: apply %d, err %v", len(apply), err)
	}
	if c.Epoch != 3 || c.Next != 3 {
		t.Fatalf("cursor = %+v, want epoch 3 next 3", c)
	}

	// An empty batch from yet another epoch is a gap, not a silent
	// epoch commit.
	if _, err := c.Accept(mkBatch("S1", 4, 1)); !errors.Is(err, ErrGap) {
		t.Fatalf("empty epoch-advancing batch accepted: %v", err)
	}
	if c.Epoch != 3 {
		t.Fatalf("epoch advanced by empty batch: %d", c.Epoch)
	}
}

// TestNewRecordTypesRoundTripThroughLog: what a follower journals while
// it applies a link's catch-up — the stream-open, the patient, the
// vertices, the anchor — recovers as a followed stream, not a session,
// and a promote after it recovers as the promoted session over that
// stream.
func TestNewRecordTypesRoundTripThroughLog(t *testing.T) {
	dir := t.TempDir()
	l, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fresh {
		t.Fatal("fresh dir reported stale")
	}
	appendAll := func(l *Log, recs ...Record) {
		t.Helper()
		for _, rec := range recs {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(l,
		Record{Type: TypeStreamOpen, PatientID: "P9", SessionID: "S9"},
		Record{Type: TypePatientUpsert, Patient: store.PatientInfo{ID: "P9", Class: "irregular"}},
		Record{Type: TypeVertexAppend, PatientID: "P9", SessionID: "S9", Vertices: mkVerts(0, 6)},
		Record{Type: TypeSessionAnchor, PatientID: "P9", SessionID: "S9", Samples: 40, AnchorT: 5.2, AnchorPos: []float64{1}},
	)

	l, res, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The follower's records rebuilt the stream, and nothing made the
	// session this node's.
	p := res.DB.Patient("P9")
	if p == nil || p.Info.Class != "irregular" {
		t.Fatalf("replica patient not recovered: %+v", p)
	}
	if st := p.StreamBySession("S9"); st == nil || st.Len() != 6 {
		t.Fatalf("replica stream not recovered (len %v)", st)
	}
	if len(res.Sessions) != 0 {
		t.Fatalf("a followed session recovered as open: %+v", res.Sessions)
	}
	appendAll(l, Record{Type: TypeReplicaPromote, PatientID: "P9", SessionID: "S9",
		Samples: 44, AnchorT: 5.5, AnchorPos: []float64{1.25}, Epoch: 2})

	_, res, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The promote opened the session with its anchor.
	if len(res.Sessions) != 1 {
		t.Fatalf("recovered %d open sessions, want 1 (promoted)", len(res.Sessions))
	}
	ss := res.Sessions[0]
	if ss.SessionID != "S9" || ss.Samples != 44 || ss.LastT != 5.5 || ss.Epoch != 2 {
		t.Fatalf("promoted session state = %+v", ss)
	}
}

// TestOnePrefixRule: a catch-up extends a copy only if the copy is a
// prefix, bit for bit, of the stream it carries, and an append only past
// the copy's last vertex; a divergence appends nothing. Each case runs as
// a follower applies a batch: Extend, then Replay. Extend also counts the
// leading vertices a catch-up's stream shares with the copy.
func TestOnePrefixRule(t *testing.T) {
	open := Record{Type: TypeStreamOpen, PatientID: "P1", SessionID: "S1"}
	anchor := Record{Type: TypeSessionAnchor, PatientID: "P1", SessionID: "S1"}
	appendOf := func(vs plr.Sequence) Record {
		return Record{Type: TypeVertexAppend, PatientID: "P1", SessionID: "S1", Vertices: vs}
	}
	negZero := mkVerts(0, 5)
	negZero[0].Pos = []float64{math.Copysign(0, -1)}
	cases := []struct {
		name string
		held int // the copy: mkVerts(0, held)
		recs []Record
		want int // the copy's length after; -1 for a divergence
		// shared is how many leading vertices of a catch-up's stream the
		// copy shares, as Extend counts them.
		shared int
	}{
		{"empty copy, catch-up", 0, []Record{open, appendOf(mkVerts(0, 4)), anchor}, 4, 0},
		{"empty copy, append", 0, []Record{appendOf(mkVerts(0, 4))}, 4, 0},
		{"append past the last vertex", 3, []Record{appendOf(mkVerts(0, 5)[3:])}, 5, 0},
		{"append at the last vertex", 3, []Record{appendOf(mkVerts(0, 5)[2:])}, -1, 0},
		{"catch-up equal to the copy", 3, []Record{open, appendOf(mkVerts(0, 3)), anchor}, 3, 3},
		{"catch-up longer than the copy", 3, []Record{open, appendOf(mkVerts(0, 5)), anchor}, 5, 3},
		{"catch-up shorter than the copy", 3, []Record{open, appendOf(mkVerts(0, 2)), anchor}, -1, 2},
		{"catch-up differing in one position bit", 3, []Record{open, appendOf(negZero), anchor}, -1, 0},
		{"catch-up with no vertex-append over a non-empty copy", 3, []Record{open, anchor}, -1, 0},
		{"catch-up with no vertex-append over an empty copy", 0, []Record{open, anchor}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := NewReplay(store.NewDB())
			st, err := rp.stream("P1", "S1")
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Append(mkVerts(0, tc.held)...); err != nil {
				t.Fatal(err)
			}
			recs := slices.Clone(tc.recs)
			_, shared, err := Extend(st.ScanView(""), recs)
			if shared != tc.shared {
				t.Errorf("Extend counts %d shared vertices, want %d", shared, tc.shared)
			}
			for i := 0; err == nil && i < len(recs); i++ {
				_, err = rp.Apply(recs[i])
			}
			view := st.ScanView("")
			if tc.want < 0 {
				if !errors.Is(err, ErrDiverged) || view.Len() != tc.held {
					t.Fatalf("err %v, copy %d vertices; want ErrDiverged and the copy's %d", err, view.Len(), tc.held)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(view.Window(0, view.Len()), mkVerts(0, tc.want)) {
				t.Fatalf("err %v, copy %d vertices; want the first %d", err, view.Len(), tc.want)
			}
		})
	}
}
