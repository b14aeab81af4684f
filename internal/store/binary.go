package store

import (
	"encoding/binary"
	"fmt"
	"io"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/plr"
)

// Binary database format. The JSON interchange format is convenient
// but ~6x larger than necessary for big cohorts (paper scale is >2M
// raw points, hundreds of thousands of vertices); the binary format
// stores positions as raw float64 little-endian words with varint
// counts and interns nothing fancy — simple, versioned, and fast.
//
// Layout (binfmt primitives):
//
//	magic "STSM" | u16 version | uvarint numPatients
//	per patient: str id, class, tumorSite | uvarint age | uvarint numStreams
//	per stream:  str sessionID | vertex block (uvarint dims | uvarint
//	             numVertices | per vertex: f64 t | byte state | dims x f64)

const (
	binaryMagic   = "STSM"
	binaryVersion = 1
)

// WriteBinary serializes the database in the compact binary format.
func (db *DB) WriteBinary(w io.Writer) error {
	const flushAt = 1 << 16
	b := binfmt.AppendHeader(make([]byte, 0, 2*flushAt), binaryMagic, binaryVersion)
	patients := db.Patients()
	b = binary.AppendUvarint(b, uint64(len(patients)))
	for _, p := range patients {
		b = binfmt.AppendString(b, p.Info.ID)
		b = binfmt.AppendString(b, p.Info.Class)
		b = binfmt.AppendString(b, p.Info.TumorSite)
		b = binary.AppendUvarint(b, uint64(p.Info.Age))
		b = binary.AppendUvarint(b, uint64(len(p.Streams)))
		for _, st := range p.Streams {
			v := st.ScanView("")
			b = binfmt.AppendString(b, st.SessionID)
			b = binary.AppendUvarint(b, uint64(v.Dims))
			b = binary.AppendUvarint(b, uint64(v.Len()))
			for i, t := range v.T {
				b = binfmt.AppendVertex(b, t, plr.StateOfByte(v.States[i]), v.Pos[i*v.Dims:(i+1)*v.Dims])
				if len(b) >= flushAt {
					if _, err := w.Write(b); err != nil {
						return err
					}
					b = b[:0]
				}
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// ReadBinary deserializes a database written by WriteBinary: the whole
// of r, with nothing after it.
func ReadBinary(r io.Reader) (*DB, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := binfmt.NewDecoder(b)
	db := DecodeBinary(&d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return db, nil
}

// DecodeBinary reads a database in the WriteBinary format off d and
// leaves d just past it; a failure is d's error. Vertices go from the
// input straight into the streams' columns, through the checks every
// append passes.
func DecodeBinary(d *binfmt.Decoder) *DB {
	d.Header(binaryMagic, binaryVersion)
	db := NewDB()
	// A patient is at least five bytes (three empty strings, an age and
	// a stream count), a stream at least three (an empty ID, dims, count).
	for i, n := 0, d.Count(5); i < n && d.Err() == nil; i++ {
		info := PatientInfo{ID: d.Str(), Class: d.Str(), TumorSite: d.Str(), Age: int(d.Uvarint())}
		if d.Err() != nil {
			break
		}
		p, err := db.AddPatient(info)
		if err != nil {
			d.Fail(err)
			break
		}
		for j, streams := 0, d.Count(3); j < streams && d.Err() == nil; j++ {
			p.decodeStream(d)
		}
	}
	return db
}

// decodeStream reads one stream of p. An empty block keeps the dims it
// names, so it re-encodes to the same bytes.
func (p *Patient) decodeStream(d *binfmt.Decoder) {
	sessionID := d.Str()
	dims, n := d.VertexBlock()
	if d.Err() != nil {
		return
	}
	st := p.AddStream(sessionID)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cols.Dims = dims
	st.reserve(n)
	var buf [plr.MaxDims]float64 // push copies the position
	pos := buf[:dims]
	for range n {
		t, state := d.Vertex(pos)
		if d.Err() != nil {
			return
		}
		if err := st.push(t, pos, state); err != nil {
			d.Fail(err)
			return
		}
	}
}
