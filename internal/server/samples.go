// Request bodies and the ingest batch decoder.
//
// A body-accepting handler reads its whole (capped) body into a pooled
// buffer and decodes from the bytes, which gives every route
// json.Unmarshal's rule that nothing but whitespace may follow the
// value, and gives the one hot shape — the sample batch, thirty times a
// second per session — a decoder that does not reflect (json.go's
// scanner).

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
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
	sc := jsonScanner{b: data}
	if !sc.token('[') {
		return nil, false
	}
	// On the accepted shape every '{' opens a sample and a comma
	// separates two samples, t from pos, or two positions, which sizes
	// both allocations exactly (scanCap: the body is not yet known to
	// have that shape). A Pos cut before the backing array moved keeps
	// the values it had.
	n := bytes.Count(data, []byte{'{'})
	batch = make([]SampleIn, 0, scanCap(n))
	backing := make([]float64, 0, scanCap(bytes.Count(data, []byte{','})+1-n))
	for more := !sc.token(']'); more; {
		var in SampleIn
		if !sc.token('{') || !sc.literal(`"t"`) || !sc.token(':') || !sc.number(&in.T) ||
			!sc.token(',') || !sc.literal(`"pos"`) || !sc.token(':') || !sc.token('[') {
			return nil, false
		}
		first := len(backing)
		if backing, ok = sc.numbers(backing); !ok || !sc.token('}') {
			return nil, false
		}
		in.Pos = backing[first:len(backing):len(backing)]
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
