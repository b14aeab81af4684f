package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"stsmatch/internal/plr"
)

// Binary database format. The JSON interchange format is convenient
// but ~6x larger than necessary for big cohorts (paper scale is >2M
// raw points, hundreds of thousands of vertices); the binary format
// stores positions as raw float64 little-endian words with varint
// counts and interns nothing fancy — simple, versioned, and fast.
//
// Layout:
//
//	magic "STSM" | u16 version | uvarint numPatients
//	per patient: str id, class, tumorSite | uvarint age | uvarint numStreams
//	per stream:  str sessionID | uvarint dims | uvarint numVertices
//	per vertex:  f64 t | byte state | dims x f64 position
//
// Strings are uvarint length + bytes.

const (
	binaryMagic   = "STSM"
	binaryVersion = 1
)

// WriteBinary serializes the database in the compact binary format.
func (db *DB) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], binaryVersion)
	if _, err := bw.Write(u16[:]); err != nil {
		return err
	}
	patients := db.Patients()
	writeUvarint(bw, uint64(len(patients)))
	for _, p := range patients {
		writeString(bw, p.Info.ID)
		writeString(bw, p.Info.Class)
		writeString(bw, p.Info.TumorSite)
		writeUvarint(bw, uint64(p.Info.Age))
		writeUvarint(bw, uint64(len(p.Streams)))
		for _, st := range p.Streams {
			if err := writeStream(bw, st); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeStream(bw *bufio.Writer, st *Stream) error {
	writeString(bw, st.SessionID)
	v := st.ScanView("")
	writeUvarint(bw, uint64(v.Dims))
	writeUvarint(bw, uint64(v.Len()))
	var rec []byte
	for i, t := range v.T {
		rec = binary.LittleEndian.AppendUint64(rec[:0], math.Float64bits(t))
		rec = append(rec, byte(plr.StateOfByte(v.States[i])))
		for _, x := range v.Pos[i*v.Dims : (i+1)*v.Dims] {
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(x))
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary deserializes a database written by WriteBinary.
func ReadBinary(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	verBuf := make([]byte, 2)
	if _, err := io.ReadFull(br, verBuf); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(verBuf); v != binaryVersion {
		return nil, fmt.Errorf("store: unsupported version %d", v)
	}
	numPatients, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 24
	if numPatients > maxReasonable {
		return nil, fmt.Errorf("store: implausible patient count %d", numPatients)
	}
	db := NewDB()
	for i := uint64(0); i < numPatients; i++ {
		var info PatientInfo
		if info.ID, err = readString(br); err != nil {
			return nil, err
		}
		if info.Class, err = readString(br); err != nil {
			return nil, err
		}
		if info.TumorSite, err = readString(br); err != nil {
			return nil, err
		}
		age, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		info.Age = int(age)
		p, err := db.AddPatient(info)
		if err != nil {
			return nil, err
		}
		numStreams, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if numStreams > maxReasonable {
			return nil, fmt.Errorf("store: implausible stream count %d", numStreams)
		}
		for s := uint64(0); s < numStreams; s++ {
			if err := readStream(br, p); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func readStream(br *bufio.Reader, p *Patient) error {
	sessionID, err := readString(br)
	if err != nil {
		return err
	}
	dims, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if dims > 16 {
		return fmt.Errorf("store: implausible dims %d", dims)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if n > 1<<30 {
		return fmt.Errorf("store: implausible vertex count %d", n)
	}
	// Vertices go from the file's records straight into the stream's
	// columns, through the checks every append passes. The count sizes
	// the columns only as far as a plausible stream; a longer one grows.
	st := p.AddStream(sessionID)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cols.Dims = int(dims)
	st.reserve(int(min(n, 1<<16)))
	rec, pos := make([]byte, 9+8*dims), make([]float64, dims)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return err
		}
		for d := range pos {
			pos[d] = math.Float64frombits(binary.LittleEndian.Uint64(rec[9+8*d:]))
		}
		if err := st.push(math.Float64frombits(binary.LittleEndian.Uint64(rec)), pos, plr.State(rec[8])); err != nil {
			return err
		}
	}
	return nil
}

func writeUvarint(bw *bufio.Writer, x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	bw.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func writeString(bw *bufio.Writer, s string) {
	writeUvarint(bw, uint64(len(s)))
	bw.WriteString(s) //nolint:errcheck // bufio defers errors to Flush
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("store: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
