package store

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/plr"
)

func buildBinaryTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	p1, err := db.AddPatient(PatientInfo{ID: "P1", Class: "deep", Age: 63, TumorSite: "lower-lobe"})
	if err != nil {
		t.Fatal(err)
	}
	s1 := p1.AddStream("P1-S01")
	seq := seqFromStates("EOIEOIR")
	for i := range seq {
		seq[i].Pos = []float64{float64(i) * 1.25, -0.5 * float64(i)}
	}
	if err := s1.Append(seq...); err != nil {
		t.Fatal(err)
	}
	// An empty stream and a second patient exercise edge paths.
	p1.AddStream("P1-S02")
	p2, err := db.AddPatient(PatientInfo{ID: "P2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.AddStream("P2-S01").Append(seqFromStates("EOI")...); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBinaryRoundTrip(t *testing.T) {
	db := buildBinaryTestDB(t)
	var buf bytes.Buffer
	if err := db.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPatients() != db.NumPatients() {
		t.Fatalf("patients %d vs %d", back.NumPatients(), db.NumPatients())
	}
	for _, p := range db.Patients() {
		q := back.Patient(p.Info.ID)
		if q == nil {
			t.Fatalf("patient %s lost", p.Info.ID)
		}
		if q.Info != p.Info {
			t.Errorf("info mismatch: %+v vs %+v", q.Info, p.Info)
		}
		if len(q.Streams) != len(p.Streams) {
			t.Fatalf("%s: streams %d vs %d", p.Info.ID, len(q.Streams), len(p.Streams))
		}
		for si, st := range p.Streams {
			got, want := q.Streams[si].Seq(), st.Seq()
			if len(got) != len(want) {
				t.Fatalf("%s/%s: vertices %d vs %d", p.Info.ID, st.SessionID, len(got), len(want))
			}
			for i := range got {
				if got[i].T != want[i].T || got[i].State != want[i].State ||
					!reflect.DeepEqual(got[i].Pos, want[i].Pos) {
					t.Errorf("vertex %d: %+v vs %+v", i, got[i], want[i])
				}
			}
		}
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	db := buildBinaryTestDB(t)
	var bin, js bytes.Buffer
	if err := db.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Errorf("binary (%d bytes) not smaller than JSON (%d bytes)", bin.Len(), js.Len())
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	db := buildBinaryTestDB(t)
	var buf bytes.Buffer
	if err := db.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"bad version", append(append([]byte{}, good[:4]...), append([]byte{99, 0}, good[6:]...)...)},
		{"truncated", good[:len(good)/2]},
		{"truncated header", good[:5]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(c.data)); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}

	// Corrupt a state byte to an invalid value: locate it by writing a
	// single-vertex db and flipping the state position. Easier: flip
	// every byte one at a time and require no panics (errors are fine).
	for i := range good {
		mutated := append([]byte{}, good...)
		mutated[i] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt byte %d: %v", i, r)
				}
			}()
			_, _ = ReadBinary(bytes.NewReader(mutated))
		}()
	}
}

func TestBinaryStringGuards(t *testing.T) {
	// A malicious huge string length must be rejected, not allocated.
	data := []byte(binaryMagic)
	data = append(data, 1, 0) // version 1
	data = append(data, 1)    // one patient
	// String length 2^40 as uvarint.
	data = append(data, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Errorf("huge string accepted: %v", err)
	}
}

// TestBinaryLimitsMatchAppend: whatever Append keeps, ReadBinary reads
// back — a stream of plr.MaxDims dimensions and an ID of binfmt.MaxIDBytes —
// and a first vertex with more dimensions is refused.
func TestBinaryLimitsMatchAppend(t *testing.T) {
	db := NewDB()
	p, err := db.AddPatient(PatientInfo{ID: strings.Repeat("p", binfmt.MaxIDBytes)})
	if err != nil {
		t.Fatal(err)
	}
	vertex := func(dims int) plr.Vertex { return plr.Vertex{T: 1, Pos: make([]float64, dims)} }
	if err := p.AddStream("wide").Append(vertex(plr.MaxDims + 1)); err == nil {
		t.Errorf("a %d-dimension stream was accepted", plr.MaxDims+1)
	}
	if err := p.AddStream("widest").Append(vertex(plr.MaxDims)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("reading back what Append kept: %v", err)
	}
	if back.NumVertices() != 1 || back.Patient(p.Info.ID) == nil {
		t.Errorf("read back %d vertices, patient found %v", back.NumVertices(), back.Patient(p.Info.ID) != nil)
	}
}

// TestRefusedFirstVertexFixesNoDims: a first vertex Append refuses
// leaves an empty stream with no dimensions, so the stream is written
// as the block 00 00 and the next first vertex sets them afresh.
func TestRefusedFirstVertexFixesNoDims(t *testing.T) {
	refused := map[string]plr.Vertex{
		"NaN time":      {T: math.NaN(), Pos: []float64{1, 2, 3}},
		"Inf position":  {T: 1, Pos: []float64{1, math.Inf(1)}},
		"invalid state": {T: 1, State: plr.IRR + 1, Pos: []float64{1, 2}},
		"too many dims": {T: 1, Pos: make([]float64, plr.MaxDims+1)},
	}
	for name, v := range refused {
		db := NewDB()
		p, err := db.AddPatient(PatientInfo{ID: "P"})
		if err != nil {
			t.Fatal(err)
		}
		st := p.AddStream("S")
		if err := st.Append(v); err == nil {
			t.Fatalf("%s: appended", name)
		}
		if dims := st.ScanView("").Dims; dims != 0 {
			t.Errorf("%s: the empty stream has %d dimensions", name, dims)
		}
		var buf bytes.Buffer
		if err := db.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(buf.Bytes(), []byte{1, 'S', 0, 0}) {
			t.Errorf("%s: stream written as %x, want the block 00 00", name, buf.Bytes())
		}
		if err := st.Append(plr.Vertex{T: 2, Pos: []float64{4}}); err != nil {
			t.Errorf("%s: a 1-D first vertex after the refusal: %v", name, err)
		}
	}
}
