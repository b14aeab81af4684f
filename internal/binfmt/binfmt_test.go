package binfmt

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"stsmatch/internal/plr"
)

// TestDecoderRefuses: each bound and check fails the decoder, and the
// failure sticks through every later read.
func TestDecoderRefuses(t *testing.T) {
	vertex := AppendVertex(nil, 1, plr.IN, []float64{2})
	cases := map[string]struct {
		data []byte
		read func(d *Decoder)
	}{
		"short byte":               {nil, func(d *Decoder) { d.U8() }},
		"short float":              {make([]byte, 7), func(d *Decoder) { d.F64() }},
		"bad uvarint":              {[]byte{0x80}, func(d *Decoder) { d.Uvarint() }},
		"non-minimal uvarint":      {[]byte{0x81, 0x00}, func(d *Decoder) { d.Uvarint() }},
		"u32 overflow":             {binary.AppendUvarint(nil, math.MaxUint32+1), func(d *Decoder) { d.U32() }},
		"string beyond input":      {[]byte{3, 'a', 'b'}, func(d *Decoder) { d.Str() }},
		"string beyond the cap":    {binary.AppendUvarint(nil, MaxIDBytes+1), func(d *Decoder) { d.Str() }},
		"count beyond input":       {[]byte{3, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Count(2) }},
		"dims beyond MaxDims":      {[]byte{plr.MaxDims + 1, 0}, func(d *Decoder) { d.VertexBlock() }},
		"vertices beyond input":    {append([]byte{1, 2}, vertex...), func(d *Decoder) { d.VertexBlock() }},
		"invalid state":            {AppendVertex(nil, 1, plr.IRR+1, nil), func(d *Decoder) { d.Vertex(nil) }},
		"empty sequence with dims": {[]byte{3, 0}, func(d *Decoder) { d.Sequence() }},
		"trailing bytes":           {[]byte{1, 2}, func(d *Decoder) { d.U8() }},
	}
	for name, c := range cases {
		d := NewDecoder(c.data)
		c.read(&d)
		err := d.Finish()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if d.U8() != 0 || d.Uvarint() != 0 || d.Str() != "" || d.Rest() != nil || d.Err() != err {
			t.Errorf("%s: reads after the failure %v do not return zero", name, err)
		}
	}
}

// TestHeader: a wrong version is ErrVersion, a wrong magic or a short
// header is not.
func TestHeader(t *testing.T) {
	for name, c := range map[string]struct {
		data    []byte
		version bool
	}{
		"other version": {AppendHeader(nil, "STXX", 2), true},
		"other magic":   {AppendHeader(nil, "STYY", 1), false},
		"short":         {[]byte("STXX\x01"), false},
	} {
		d := NewDecoder(c.data)
		d.Header("STXX", 1)
		if err := d.Err(); err == nil || errors.Is(err, ErrVersion) != c.version {
			t.Errorf("%s: err = %v, want ErrVersion %v", name, err, c.version)
		}
	}
	d := NewDecoder(AppendHeader(nil, "STXX", 1))
	if d.Header("STXX", 1); d.Finish() != nil {
		t.Errorf("own header refused: %v", d.Err())
	}
}
