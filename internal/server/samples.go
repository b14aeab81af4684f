// Request bodies and the ingest batch decoder.
//
// A body-accepting handler reads its whole (capped) body into a pooled
// buffer and decodes from the bytes, which gives every route
// json.Unmarshal's rule that nothing but whitespace may follow the
// value, and gives the one hot shape — the sample batch, thirty times a
// second per session — a decoder that does not reflect.

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// maxPooledBody is the largest body buffer worth keeping: a 30-sample
// batch is ~1.5 KB, and one multi-megabyte warm-up body must not stay
// pinned in the pool for the life of the process.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body under the server's cap into a pooled buffer.
// The caller hands the buffer back with releaseBody once nothing
// aliases its bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	s.capBody(w, r)
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		releaseBody(buf)
		return nil, err
	}
	return buf, nil
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeJSONBody reads r's body and unmarshals it into v.
func (s *Server) decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	buf, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	defer releaseBody(buf)
	return json.Unmarshal(buf.Bytes(), v)
}

// decodeSamples decodes an ingest batch. The canonical shape takes the
// scanner below; anything else is json.Unmarshal's to accept or refuse,
// so the accepted language and every decoded value are what they were
// when json.Unmarshal was the only decoder.
func decodeSamples(data []byte) ([]SampleIn, error) {
	if batch, ok := scanSamples(data); ok {
		return batch, nil
	}
	var batch []SampleIn
	err := json.Unmarshal(data, &batch)
	return batch, err
}

// scanSamples decodes exactly
//
//	[{"t":N,"pos":[N,...]},...]
//
// with JSON whitespace allowed between tokens and N a number in JSON's
// grammar that strconv.ParseFloat takes without error. It declines
// (ok false) on everything else — another key order, a missing, extra,
// repeated or differently-cased key, null, a string escape, a number
// form JSON does not have, an out-of-range number, trailing bytes —
// rather than decide what such input means. Every Pos shares one
// backing array, so a batch costs two allocations.
func scanSamples(data []byte) (batch []SampleIn, ok bool) {
	sc := sampleScanner{b: data}
	if !sc.token('[') {
		return nil, false
	}
	// On the accepted shape every '{' opens a sample and a comma
	// separates two samples, t from pos, or two positions, which sizes
	// both allocations exactly. The body is not yet known to have that
	// shape, so the counts are clamped as the WAL decoders clamp theirs;
	// a larger batch grows by append, and a Pos cut before the backing
	// array moved keeps the values it had.
	n := bytes.Count(data, []byte{'{'})
	batch = make([]SampleIn, 0, min(n, 4096))
	backing := make([]float64, 0, min(max(bytes.Count(data, []byte{','})+1-n, 0), 4096))
	for more := !sc.token(']'); more; {
		var in SampleIn
		if !sc.token('{') || !sc.literal(`"t"`) || !sc.token(':') || !sc.number(&in.T) ||
			!sc.token(',') || !sc.literal(`"pos"`) || !sc.token(':') || !sc.token('[') {
			return nil, false
		}
		first := len(backing)
		for more := !sc.token(']'); more; {
			var x float64
			if !sc.number(&x) {
				return nil, false
			}
			backing = append(backing, x)
			if more = !sc.token(']'); more && !sc.token(',') {
				return nil, false
			}
		}
		in.Pos = backing[first:len(backing):len(backing)]
		if !sc.token('}') {
			return nil, false
		}
		batch = append(batch, in)
		if more = !sc.token(']'); more && !sc.token(',') {
			return nil, false
		}
	}
	if !sc.end() {
		return nil, false
	}
	return batch, true
}

// sampleScanner is a cursor over a sample batch's bytes.
type sampleScanner struct {
	b   []byte
	off int
}

func (sc *sampleScanner) space() {
	for sc.off < len(sc.b) {
		switch sc.b[sc.off] {
		case ' ', '\t', '\n', '\r':
			sc.off++
		default:
			return
		}
	}
}

// token consumes c, after any whitespace, if it is next.
func (sc *sampleScanner) token(c byte) bool {
	sc.space()
	if sc.off < len(sc.b) && sc.b[sc.off] == c {
		sc.off++
		return true
	}
	return false
}

// literal consumes lit, after any whitespace, if it is next.
func (sc *sampleScanner) literal(lit string) bool {
	sc.space()
	if len(sc.b)-sc.off >= len(lit) && string(sc.b[sc.off:sc.off+len(lit)]) == lit {
		sc.off += len(lit)
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (sc *sampleScanner) end() bool {
	sc.space()
	return sc.off == len(sc.b)
}

// number consumes one number in JSON's grammar,
//
//	-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// and parses it the way encoding/json does for a float64 field.
func (sc *sampleScanner) number(out *float64) bool {
	sc.space()
	b, i := sc.b, sc.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++ // "01" leaves its 1 behind for the caller's next token to trip on
	} else if i = skipDigits(b, i); i < 0 {
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i < 0 {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = skipDigits(b, i); i < 0 {
			return false
		}
	}
	x, err := strconv.ParseFloat(string(b[sc.off:i]), 64)
	if err != nil {
		return false
	}
	*out, sc.off = x, i
	return true
}

// skipDigits returns the offset past the run of digits at b[i:], or -1
// when there is none.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}
