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
	"fmt"
	"net/http"
	"sync"

	"stsmatch/internal/plr"
)

// maxPooledBody is the largest body buffer worth keeping: a 30-sample
// batch is ~1.5 KB, and one multi-megabyte warm-up body must not stay
// pinned in the pool for the life of the process.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body under the cap into a pooled buffer.
// The caller hands the buffer back with releaseBody once nothing
// aliases its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	capBody(w, r)
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
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	buf, err := readBody(w, r)
	if err != nil {
		return err
	}
	defer releaseBody(buf)
	return json.Unmarshal(buf.Bytes(), v)
}

// decodeSamples decodes an ingest batch. The canonical shape takes the
// scanner below; anything else is json.Unmarshal's to accept or refuse,
// so the accepted language and every decoded value are what they were
// when json.Unmarshal was the only decoder. A sample with more than
// plr.MaxDims coordinates refuses the whole batch, since the store would
// not keep its stream.
func decodeSamples(data []byte) ([]SampleIn, error) {
	batch, ok := scanSamples(data)
	if !ok {
		var decoded []SampleIn // apart from batch, so only this path moves it to the heap
		if err := json.Unmarshal(data, &decoded); err != nil {
			return nil, err
		}
		batch = decoded
	}
	for _, in := range batch {
		if len(in.Pos) > plr.MaxDims {
			return nil, fmt.Errorf("sample at t=%v has %d dimensions, at most %d are kept", in.T, len(in.Pos), plr.MaxDims)
		}
	}
	return batch, nil
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
		if !sc.tokens(`{"t":`) || !sc.number(&in.T) || !sc.tokens(`,"pos":[`) {
			return nil, false
		}
		first := len(backing)
		if backing, ok = sc.numbers(backing); !ok || !sc.token('}') {
			return nil, false
		}
		in.Pos = backing[first:len(backing):len(backing)]
		batch = append(batch, in)
		if more, ok = sc.next(); !ok {
			return nil, false
		}
	}
	if !sc.end() {
		return nil, false
	}
	return batch, true
}
