// The public JSON codec's two fast halves. One scanner reads the request
// shapes the hot routes take (the ingest batch, the match query) and one
// appender writes the answers they give (the match list, the ingest ack,
// the prediction). Each either produces exactly what encoding/json would
// or declines, and encoding/json then runs on the whole value — so the
// accepted language, every decoded value and every answer byte are
// encoding/json's, and encoding/json is the only fallback.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"stsmatch/internal/core"
)

// jsonScanner is a cursor over a request body's bytes.
type jsonScanner struct {
	b   []byte
	off int
}

func (sc *jsonScanner) space() {
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
func (sc *jsonScanner) token(c byte) bool {
	sc.space()
	if sc.off < len(sc.b) && sc.b[sc.off] == c {
		sc.off++
		return true
	}
	return false
}

// literal consumes lit, after any whitespace, if it is next.
func (sc *jsonScanner) literal(lit string) bool {
	sc.space()
	if len(sc.b)-sc.off >= len(lit) && string(sc.b[sc.off:sc.off+len(lit)]) == lit {
		sc.off += len(lit)
		return true
	}
	return false
}

// member consumes `,key:` when that is next, and nothing otherwise: an
// optional object member, key spelled with its quotes.
func (sc *jsonScanner) member(key string) bool {
	off := sc.off
	if sc.token(',') && sc.literal(key) && sc.token(':') {
		return true
	}
	sc.off = off
	return false
}

// end reports whether only whitespace remains.
func (sc *jsonScanner) end() bool {
	sc.space()
	return sc.off == len(sc.b)
}

// number consumes one number in JSON's grammar,
//
//	-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// and parses it the way encoding/json does for a float64 field.
func (sc *jsonScanner) number(out *float64) bool {
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

// numbers consumes the rest of a number array whose '[' has been
// consumed, appending its elements to dst.
func (sc *jsonScanner) numbers(dst []float64) ([]float64, bool) {
	for more := !sc.token(']'); more; {
		var x float64
		if !sc.number(&x) {
			return dst, false
		}
		dst = append(dst, x)
		if more = !sc.token(']'); more && !sc.token(',') {
			return dst, false
		}
	}
	return dst, true
}

// smallInt consumes a non-negative integer with no fraction or exponent
// and at most limit, which must be below MaxInt/10. A sign, a larger
// value or a float spelling is declined: encoding/json decides those.
func (sc *jsonScanner) smallInt(out *int, limit int) bool {
	sc.space()
	b, i, n := sc.b, sc.off, 0
	if i < len(b) && b[i] == '0' {
		i++ // as in number: "01" trips the caller's next token
	} else {
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if n = 10*n + int(b[i]-'0'); n > limit {
				return false
			}
		}
		if i == sc.off {
			return false
		}
	}
	*out, sc.off = n, i
	return true
}

// plainString consumes a string whose bytes are all printable ASCII
// other than '"' and '\' — a string encoding/json decodes to its own
// bytes — and declines any other.
func (sc *jsonScanner) plainString(out *string) bool {
	if !sc.token('"') {
		return false
	}
	for i := sc.off; i < len(sc.b); i++ {
		switch c := sc.b[i]; {
		case c == '"':
			*out, sc.off = string(sc.b[sc.off:i]), i+1
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
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

// scanCap clamps a count taken from a body not yet known to have the
// shape it was counted for, as the WAL decoders clamp theirs: a larger
// value grows by append.
func scanCap(n int) int { return min(max(n, 0), 4096) }

// JSONAnswer is one fixed-shape JSON answer appended without
// reflection, for the served answers that dominate a deployment's
// traffic. Every value goes in as encoding/json writes it; a value
// encoding/json would write otherwise — a string it escapes ('"', '\',
// '<', '>', '&', a control byte, anything not ASCII) or a float it
// refuses (NaN, ±Inf) — spoils the answer, and Write then declines so
// the caller encodes the whole value with encoding/json instead.
type JSONAnswer struct {
	b     []byte
	plain bool
}

var answerPool = sync.Pool{New: func() any { return new(JSONAnswer) }}

// NewJSONAnswer takes an empty answer from a pool; Write gives it back.
func NewJSONAnswer() *JSONAnswer {
	a := answerPool.Get().(*JSONAnswer)
	a.b, a.plain = a.b[:0], true
	return a
}

// Raw appends s verbatim: punctuation and keys the caller spells as JSON.
func (a *JSONAnswer) Raw(s string) { a.b = append(a.b, s...) }

// Int appends n.
func (a *JSONAnswer) Int(n int) { a.b = strconv.AppendInt(a.b, int64(n), 10) }

// float appends x by encoding/json's rule: the shortest 'f' form unless
// |x| < 1e-6 or |x| >= 1e21, then 'e' with the exponent unpadded.
func (a *JSONAnswer) float(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		a.plain = false
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(a.b, x, format, -1, 64)
	if n := len(a.b); format == 'e' && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1] // e-07 is written e-7
		a.b = a.b[:n-1]
	}
}

// floats appends xs as encoding/json writes a []float64.
func (a *JSONAnswer) floats(xs []float64) {
	if xs == nil {
		a.Raw("null")
		return
	}
	a.Raw("[")
	for i, x := range xs {
		if i > 0 {
			a.Raw(",")
		}
		a.float(x)
	}
	a.Raw("]")
}

// str appends s quoted, if encoding/json would not escape any of it.
func (a *JSONAnswer) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			a.plain = false
			return
		}
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, s...)
	a.b = append(a.b, '"')
}

// match appends one match as encoding/json writes a RemoteMatch.
func (a *JSONAnswer) match(pid, sid string, start, n int, relation string, distance, weight float64) {
	a.Raw(`{"patientId":`)
	a.str(pid)
	a.Raw(`,"sessionId":`)
	a.str(sid)
	a.Raw(`,"start":`)
	a.Int(start)
	a.Raw(`,"n":`)
	a.Int(n)
	a.Raw(`,"relation":`)
	a.str(relation)
	a.Raw(`,"distance":`)
	a.float(distance)
	a.Raw(`,"weight":`)
	a.float(weight)
	a.Raw("}")
}

// Matches appends the member "matches":ms as encoding/json writes a
// []RemoteMatch.
func (a *JSONAnswer) Matches(ms []RemoteMatch) {
	if ms == nil {
		a.Raw(`"matches":null`)
		return
	}
	a.Raw(`"matches":[`)
	for i, m := range ms {
		if i > 0 {
			a.Raw(",")
		}
		a.match(m.PatientID, m.SessionID, m.Start, m.N, m.Relation, m.Distance, m.Weight)
	}
	a.Raw("]")
}

// coreMatches appends the member "matches":ms in the RemoteMatch form
// the JSON route answers with, without building the RemoteMatch list.
func (a *JSONAnswer) coreMatches(ms []core.Match) {
	a.Raw(`"matches":[`)
	for i, m := range ms {
		if i > 0 {
			a.Raw(",")
		}
		a.match(m.Stream.PatientID, m.Stream.SessionID, m.Start, m.N, m.Relation.String(), m.Distance, m.Weight)
	}
	a.Raw("]")
}

// Write sends the answer with status code and reports true, unless a
// value spoiled it: then it writes nothing and reports false, and the
// caller encodes the value with encoding/json. Either way the answer
// goes back to its pool.
func (a *JSONAnswer) Write(w http.ResponseWriter, code int) bool {
	plain := a.plain
	if plain {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(a.b) //nolint:errcheck
	}
	if cap(a.b) <= maxPooledBody {
		answerPool.Put(a)
	}
	return plain
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

// writeJSON answers v as json.Encoder writes it, trailing newline
// included. The value is encoded before the status is written, so one
// encoding/json refuses (a NaN or ±Inf float) is a 500 that says why,
// not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer releaseBody(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes()) //nolint:errcheck
}
