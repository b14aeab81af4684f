package store

import (
	"bytes"
	"testing"
)

// FuzzReadBinary hammers the binary decoder with arbitrary bytes: it
// must reject garbage with an error (or decode a valid database) and
// never panic or over-allocate on hostile length fields.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("nil database without error")
		}
		if err == nil {
			// Anything that decodes must round-trip consistently.
			var again bytes.Buffer
			if err := got.WriteBinary(&again); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			back, err := ReadBinary(&again)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if back.NumVertices() != got.NumVertices() {
				t.Fatal("round trip changed vertex count")
			}
		}
	})
}

// FuzzFindWindows checks the scan candidate generator against
// arbitrary state strings and signatures: results must be in-range,
// sorted, and exact matches, and the walk underneath must equal the
// byte-by-byte reference, indexed or not, in blocks of any size.
func FuzzFindWindows(f *testing.F) {
	f.Add("EOIEOIEOI", "EOI")
	f.Add("RRRRRR", "EO")
	f.Add("EOIEOIE", "")
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
