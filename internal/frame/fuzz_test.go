package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/wal"
)

func requestPayload(method, uri string, h http.Header, body []byte) []byte {
	return append(appendHeader(appendField(appendField(nil, method), uri), h), body...)
}

func replyPayload(status int, h http.Header, body []byte) []byte {
	return append(appendHeader(binary.BigEndian.AppendUint16(nil, uint16(status)), h), body...)
}

// seedPayloads are what the carrier really moves: a match leg and its
// reply, a replication batch, a bodyless GET, and frames with no
// headers.
func seedPayloads() [][]byte {
	seq := plr.Sequence{{T: 0, Pos: []float64{1}, State: plr.EX}, {T: 1, Pos: []float64{2}, State: plr.IN}}
	leg := wal.AppendMatchLegRequest(nil, wal.MatchLegRequest{K: 10, PatientID: "P00", Seq: seq})
	legReply := wal.AppendMatchLegReply(nil, wal.MatchLegReply{
		Streams: []wal.LegStream{{PatientID: "P02", SessionID: "S"}},
		Hits:    []wal.LegHit{{Stream: 0, Start: 3, N: 2, Distance: 0.5, Weight: 1}},
	})
	batch := wal.EncodeBatch(wal.Batch{Source: "http://a", SessionID: "S", PatientID: "P", Epoch: 1, FirstSeq: 1,
		Records: []wal.Record{{Type: wal.TypeStreamOpen, PatientID: "P", SessionID: "S", LSN: 1}}})
	trace := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	return [][]byte{
		requestPayload("POST", "/v1/match", http.Header{"Content-Type": {wal.MatchLegContentType}, "Traceparent": {trace}}, leg),
		requestPayload("POST", "/v1/replicate", http.Header{"Content-Type": {"application/octet-stream"}, "X-Request-Id": {"ab-000001"}}, batch),
		requestPayload("GET", "/v1/sessions/a%2Fb/predict?delta=200ms", http.Header{"Traceparent": {trace}}, nil),
		requestPayload("DELETE", "/v1/sessions/S", nil, nil),
		replyPayload(200, http.Header{"Content-Type": {wal.MatchLegContentType}}, legReply),
		replyPayload(410, http.Header{"Location": {"http://b"}, "X-Multi": {"1", "2"}}, nil),
		replyPayload(204, nil, nil),
	}
}

// FuzzFrameDecode: the request and reply decoders survive any payload,
// what either accepts re-encodes to the very bytes it came from, and a
// payload whose counts or lengths overrun it is refused before anything
// is allocated. (That an over-cap length prefix is refused unread is
// TestOverCapFramesRefused.)
func FuzzFrameDecode(f *testing.F) {
	for _, p := range append(seedPayloads(), refusedPayloads...) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := DecodeRequest(p)
		if err == nil {
			body, _ := io.ReadAll(req.Body)
			if again := requestPayload(req.Method, req.RequestURI, req.Header, body); !bytes.Equal(again, p) {
				t.Errorf("request %q re-encodes to %q", p, again)
			}
		} else if c := (cursor{p: p}); !headFits(&c) && allocs(func() { DecodeRequest(p) }) > 0 { //nolint:errcheck
			t.Errorf("request %q: a refusal allocated", p)
		}
		resp, err := DecodeReply(p)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			if again := replyPayload(resp.StatusCode, resp.Header, body); !bytes.Equal(again, p) {
				t.Errorf("reply %q re-encodes to %q", p, again)
			}
		} else if allocs(func() { DecodeReply(p) }) > 0 { //nolint:errcheck
			t.Errorf("reply %q: a refusal allocated", p)
		}
	})
}

// headFits walks a request's method, URI and header pairs as
// DecodeRequest does; false is a refusal that must not allocate (a URI
// that does not parse is refused after the walk, and may).
func headFits(c *cursor) bool {
	c.field()
	c.field()
	c.header(4)
	return !c.bad
}

func allocs(f func()) float64 { return testing.AllocsPerRun(1, f) }

// refusedPayloads overrun or disorder every field a decoder checks.
var refusedPayloads = [][]byte{
	{},
	{0, 0, 0, 9, 'G', 'E', 'T'}, // method longer than the payload
	{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, '/'},                                                      // URI longer than the payload
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 2},                                                     // 9 pairs in 2 bytes
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 'k', 0, 0, 0, 9},                              // value past the end
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 'b', 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0}, // keys out of order
	{0, 99, 0, 0, 0, 0},              // status below 100
	{0x03, 0xE8, 0, 0, 0, 0},         // status above 999
	{0, 200, 0, 0, 0, 2, 0, 0, 0, 0}, // reply: pairs past the end
}
