// Package frame is the carrier of buffered internal calls (DESIGN §9).
// A client upgrades an HTTP/1.1 connection on the shard's own port,
// then uses it for one exchange at a time. A frame is a big-endian u32
// payload length, then the payload:
//
//	request: u32 n, method | u32 n, request URI | header pairs | body
//	reply:   u16 status | header pairs | body
//	header pairs: u32 count, then per pair u32 n, key | u32 n, value
//
// Keys ascend, a key's values keep their order, and the body is the
// rest of the payload.
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
)

// Protocol is the Upgrade token of a framed connection.
const Protocol = "stsmatch-frame/1"

// MaxReplyBytes caps a reply frame's payload.
const MaxReplyBytes = 64 << 20

var (
	// ErrMalformed is a payload whose counts or lengths overrun it, whose
	// keys are out of order, or whose status is outside 100–999.
	ErrMalformed = errors.New("frame: malformed payload")
	// ErrTooLarge is a frame over its cap, refused before its payload is
	// read: a reply over MaxReplyBytes, a request over the server's cap.
	ErrTooLarge = errors.New("frame: frame exceeds its cap")
)

func appendField(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// appendHeader writes h's pairs, keys ascending.
func appendHeader(b []byte, h http.Header) []byte {
	var arr [16]string
	keys, n := arr[:0], 0
	for k, vs := range h {
		keys, n = append(keys, k), n+len(vs)
	}
	slices.Sort(keys)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	for _, k := range keys {
		for _, v := range h[k] {
			b = appendField(appendField(b, k), v)
		}
	}
	return b
}

// readFrame reads one frame's payload, refusing one over max (0: no
// cap) before reading or allocating it.
func readFrame(br *bufio.Reader, max int) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr))
	if max > 0 && n > int64(max) {
		return nil, ErrTooLarge
	}
	p := make([]byte, 4+n)
	_, err = io.ReadFull(br, p)
	return p[4:], err
}

// DecodeRequest decodes a request payload into a server request reading
// its body in place. Every count and length is checked against the
// bytes that remain first: a refused payload allocates nothing.
func DecodeRequest(p []byte) (*http.Request, error) {
	c := cursor{p: p}
	mlo, mhi := c.field()
	ulo, uhi := c.field()
	s, h := c.header(4)
	if c.bad {
		return nil, ErrMalformed
	}
	uri := s[ulo-4 : uhi-4]
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		return nil, ErrMalformed
	}
	return &http.Request{Method: s[mlo-4 : mhi-4], URL: u, RequestURI: uri, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: io.NopCloser(bytes.NewReader(p[c.at:])), ContentLength: int64(len(p) - c.at)}, nil
}

// DecodeReply decodes a reply payload into a response whose body reads
// the payload in place, with DecodeRequest's checks.
func DecodeReply(p []byte) (*http.Response, error) {
	if len(p) < 2 {
		return nil, ErrMalformed
	}
	c, status := cursor{p: p, at: 2}, int(binary.BigEndian.Uint16(p))
	c.bad = status < 100 || status > 999
	_, h := c.header(2)
	if c.bad {
		return nil, ErrMalformed
	}
	return &http.Response{Status: strconv.Itoa(status) + " " + http.StatusText(status), StatusCode: status,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: h,
		Body: io.NopCloser(bytes.NewReader(p[c.at:])), ContentLength: int64(len(p) - c.at)}, nil
}

// cursor walks a payload; bad latches the first field that overruns it.
type cursor struct {
	p   []byte
	at  int
	bad bool
}

// u32 reads a count or length; one past the whole payload is bad.
func (c *cursor) u32() int {
	if c.bad || len(c.p)-c.at < 4 || uint64(binary.BigEndian.Uint32(c.p[c.at:])) > uint64(len(c.p)) {
		c.bad = true
		return 0
	}
	c.at += 4
	return int(binary.BigEndian.Uint32(c.p[c.at-4:]))
}

// field skips one length-prefixed field and returns its bounds.
func (c *cursor) field() (lo, hi int) {
	if n := c.u32(); !c.bad && n <= len(c.p)-c.at {
		c.at += n
		return c.at - n, c.at
	}
	c.bad = true
	return 0, 0
}

// header reads the header pairs. A first walk checks each length and
// the keys' order without allocating; the header is then built over one
// string holding p[base:] up to the body.
func (c *cursor) header(base int) (string, http.Header) {
	at := c.at
	n := c.u32()
	if n > (len(c.p)-c.at)/8 { // a pair takes at least eight bytes
		c.bad = true
	}
	var prev []byte
	for i := 0; i < n && !c.bad; i++ {
		lo, hi := c.field()
		c.field()
		if bytes.Compare(prev, c.p[lo:hi]) > 0 {
			c.bad = true
		}
		prev = c.p[lo:hi]
	}
	if c.bad {
		return "", nil
	}
	s, h, vals := string(c.p[base:c.at]), make(http.Header, n), make([]string, n)
	c.at = at + 4
	for i := range vals {
		klo, khi := c.field()
		vlo, vhi := c.field()
		k := s[klo-base : khi-base]
		if vals[i] = s[vlo-base : vhi-base]; h[k] != nil {
			h[k] = append(h[k], vals[i])
		} else {
			h[k] = vals[i : i+1 : i+1]
		}
	}
	return s, h
}
