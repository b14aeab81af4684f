package store

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadBinary hammers the binary decoder with arbitrary bytes: it
// must reject garbage with an error (or decode a valid database), never
// panic or over-allocate on hostile length fields, and whatever decodes
// must re-encode to the same bytes.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid database plus structured mutations.
	db := NewDB()
	p, _ := db.AddPatient(PatientInfo{ID: "P1", Class: "calm", Age: 50})
	st := p.AddStream("S1")
	_ = st.Append(seqFromStates("EOIEOI")...)
	var buf bytes.Buffer
	if err := db.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("STSM"))
	f.Add([]byte{})
	// A stream written as an empty block that names 3 dimensions, what
	// Append left behind after refusing a first vertex: it reads back
	// with its dimensions kept.
	f.Add([]byte("STSM\x01\x00\x01\x01P\x00\x00\x00\x01\x01S\x03\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("nil database without error")
		}
		if err == nil {
			var again bytes.Buffer
			if err := got.WriteBinary(&again); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("re-encode differs:\n got %x\nwant %x", again.Bytes(), data)
			}
		}
	})
}

// FuzzFindWindows checks candidate generation against arbitrary state
// strings and signatures: results must be in-range, sorted, exact
// matches and every match a per-start compare finds, and the walk
// underneath (the postings for a signature of a gram or more, the state
// string for a shorter one) must equal the byte-by-byte reference in
// blocks of any size.
func FuzzFindWindows(f *testing.F) {
	f.Add("EOIEOIEOI", "EOI")
	f.Add("RRRRRR", "EO")
	f.Add("EOIEOIE", "")
	f.Add("EOIREOIEOIRR", "R")
	f.Add("EOIREOIEOIRR", "EOIEOIRR")
	f.Add("EOIEOIEOIEOIEOIEOIEOIE", "EOIEOIEOIEOI")
	f.Add("EOIEOIEOIEOIEOIEOIEOIE", "OIEOIEOIEOIEOIEOIE")
	// Signatures of 17 to 33 states, the length of a dynamic predict
	// query's, past the two-word compare; the R in the stream lands
	// inside each 8-byte span of some window.
	f.Add("EOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOI", "EOIEOIEOIEOIEOIEO")
	f.Add("EOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOI", "OIEOIEOIEOIEOIEOIEOIEOIE")
	f.Add("EOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOI", "IEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIE")
	f.Add("EOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOI", "EOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOI")
	f.Add("EOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIERIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOIEOI", "EOIEOIEOIEOIEOIEOIEOIEOIEOIEOI")
	f.Fuzz(func(t *testing.T, streamStates, sig string) {
		if len(streamStates) > 500 || len(sig) > 50 {
			return
		}
		norm := func(s string) string {
			b := []byte(s)
			for i := range b {
				switch b[i] % 4 {
				case 0:
					b[i] = 'E'
				case 1:
					b[i] = 'O'
				case 2:
					b[i] = 'I'
				default:
					b[i] = 'R'
				}
			}
			return string(b)
		}
		streamStates = norm(streamStates)
		sig = norm(sig)
		if len(streamStates) == 0 {
			return
		}
		st := NewStream("P", "S")
		if err := st.Append(seqFromStates(streamStates)...); err != nil {
			t.Fatal(err)
		}
		ws := st.FindWindows(sig)
		if len(sig) > 0 && !slices.Equal(ws, naiveStarts(streamStates, sig)) {
			t.Fatalf("FindWindows(%q) = %v, per-start compare gave %v", sig, ws, naiveStarts(streamStates, sig))
		}
		prev := -1
		for _, j := range ws {
			if j <= prev {
				t.Fatal("window starts not strictly increasing")
			}
			prev = j
			if j < 0 || j+len(sig)+1 > len(streamStates) {
				t.Fatalf("window %d out of range", j)
			}
			if streamStates[j:j+len(sig)] != sig {
				t.Fatalf("window %d does not match signature", j)
			}
		}
		if len(sig) < len(streamStates) {
			checkAppendWindows(t, streamStates, sig)
		}
	})
}
