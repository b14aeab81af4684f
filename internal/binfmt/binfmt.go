// Package binfmt holds the primitives of every binary format a node
// writes and reads back: the store body, WAL records and segments,
// snapshots, replication batches and match legs. A message is a 4-byte
// magic and a u16 version, then fields built from four primitives:
// uvarints, uvarint-length strings, little-endian IEEE float64s and
// vertex blocks (uvarint dims, uvarint count, then per vertex f64 time,
// a state byte and dims f64 coordinates).
//
// A Decoder reads them from one byte slice under three bounds: a string
// is at most MaxIDBytes, a position at most plr.MaxDims coordinates,
// and a count no larger than the bytes left could hold, so nothing is
// ever sized by a number the input cannot back.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stsmatch/internal/plr"
)

// MaxIDBytes is the longest string, a patient or session ID above all,
// that a Decoder reads back. An API that journals an ID refuses a longer
// one rather than acknowledge what recovery would lose.
const MaxIDBytes = 1 << 20

// ErrVersion marks a header whose magic matched and whose version this
// build does not read: the data may be intact, for a build that can.
var ErrVersion = errors.New("unsupported version")

var (
	errShort  = errors.New("short input")
	errVarint = errors.New("bad uvarint")
)

// AppendHeader appends a message header: magic, then version as a
// little-endian u16.
func AppendHeader(b []byte, magic string, version uint16) []byte {
	return binary.LittleEndian.AppendUint16(append(b, magic...), version)
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendF64 appends v as a little-endian IEEE word.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendVertex appends one vertex of a block: time, state, position.
func AppendVertex(b []byte, t float64, s plr.State, pos []float64) []byte {
	b = append(AppendF64(b, t), byte(s))
	for _, x := range pos {
		b = AppendF64(b, x)
	}
	return b
}

// AppendSequence appends vs as a vertex block, taking dims from its
// first vertex.
func AppendSequence(b []byte, vs plr.Sequence) []byte {
	b = binary.AppendUvarint(b, uint64(vs.Dims()))
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendVertex(b, v.T, v.State, v.Pos)
	}
	return b
}

// Decoder is a bounds-checked cursor over one byte slice. The first
// failure sticks: every later read returns zero, so a caller reads its
// fields straight through and checks once. It is meant to live on the
// caller's stack.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a Decoder at the start of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's failure unless one is already set,
// for checks only the caller knows.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish returns the first failure, or an error for bytes left over.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Rest returns the bytes not yet read (nil after a failure).
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.b[d.off:]
}

// Header reads a message header and fails unless it carries magic and
// version; a wrong version fails with an error wrapping ErrVersion.
func (d *Decoder) Header(magic string, version uint16) {
	got := d.Bytes(len(magic))
	v := uint16(d.U8()) | uint16(d.U8())<<8
	switch {
	case d.err != nil:
	case string(got) != magic:
		d.err = fmt.Errorf("bad magic %q, want %s", got, magic)
	case v != version:
		d.err = fmt.Errorf("%s: %w %d", magic, ErrVersion, v)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = errShort
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads a uvarint in its shortest form; a longer encoding of
// the same value would not re-encode to the bytes read, and fails.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.err = errVarint
		return 0
	}
	d.off += n
	return v
}

// U32 reads a uvarint that must fit in 32 bits.
func (d *Decoder) U32() uint32 {
	v := d.Uvarint()
	if d.err == nil && v > math.MaxUint32 {
		d.err = fmt.Errorf("value %d overflows u32", v)
	}
	return uint32(v)
}

// Fixed64 reads a little-endian u64.
func (d *Decoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// F64 reads a little-endian IEEE float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.Fixed64()) }

// Bytes returns the next n bytes, aliasing the input.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.off {
		d.err = errShort
		return nil
	}
	b := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Str reads a uvarint-length string of at most MaxIDBytes.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err == nil && n > MaxIDBytes {
		d.err = fmt.Errorf("implausible string length %d", n)
	}
	return string(d.Bytes(int(n)))
}

// Count reads an element count and fails on one the bytes left could
// not hold at minSize bytes an element, so the caller may allocate
// exactly that many.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64((len(d.b)-d.off)/minSize) {
		d.err = fmt.Errorf("count %d exceeds the input", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Dims reads a position's dimension count, at most plr.MaxDims.
func (d *Decoder) Dims() int {
	n := d.Uvarint()
	if d.err == nil && n > plr.MaxDims {
		d.err = fmt.Errorf("implausible dims %d", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// VertexBlock reads a vertex block's dims and vertex count; the caller
// reads that many vertices with Vertex.
func (d *Decoder) VertexBlock() (dims, n int) {
	dims = d.Dims()
	return dims, d.Count(9 + 8*dims)
}

// Vertex reads one vertex of a block into pos, which has the block's
// dims, and returns its time and state. A state byte plr does not
// define fails.
func (d *Decoder) Vertex(pos []float64) (float64, plr.State) {
	t, s := d.F64(), plr.State(d.U8())
	if d.err == nil && !s.Valid() {
		d.err = fmt.Errorf("invalid state byte %d", s)
	}
	for i := range pos {
		pos[i] = d.F64()
	}
	return t, s
}

// Sequence reads a vertex block as a plr.Sequence whose positions share
// one array. A sequence takes its dims from its vertices, so an empty
// block claiming dims has no sequence that re-encodes to it, and fails.
func (d *Decoder) Sequence() plr.Sequence {
	dims, n := d.VertexBlock()
	if d.err == nil && n == 0 && dims != 0 {
		d.err = fmt.Errorf("empty vertex block with dims %d", dims)
	}
	if d.err != nil {
		return nil
	}
	vs, pos := make(plr.Sequence, n), make([]float64, n*dims)
	for i := range vs {
		v := plr.Vertex{Pos: pos[:dims:dims]}
		v.T, v.State = d.Vertex(v.Pos)
		if d.err != nil {
			return nil
		}
		vs[i], pos = v, pos[dims:]
	}
	return vs
}
