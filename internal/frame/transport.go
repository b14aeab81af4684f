package frame

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// maxIdlePerHost bounds the idle connections kept to one host.
const maxIdlePerHost = 32

// Transport is an http.RoundTripper carrying each request in a frame on
// a pooled, upgraded connection to its host, one exchange at a time. An
// idle connection keeps a 4 KiB reader and at most keepBytes of frame,
// and is checked before reuse. A context's end becomes a connection
// deadline that fails the exchange with the context's error. A request
// accepting text/event-stream goes to net/http. The zero value is ready.
type Transport struct {
	mu     sync.Mutex
	idle   map[string][]*clientConn
	closed bool
	stream http.Transport
}

// Close closes the idle connections at once and the others when their
// exchange ends; later requests fail.
func (t *Transport) Close() {
	t.mu.Lock()
	t.closed = true
	for _, conns := range t.idle {
		for _, c := range conns {
			c.nc.Close()
		}
	}
	t.idle = nil
	t.mu.Unlock()
	t.stream.CloseIdleConnections()
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("Accept") == "text/event-stream" {
		return t.stream.RoundTrip(req)
	}
	if req.Body != nil {
		defer req.Body.Close()
	}
	c, err := t.conn(req.Context(), req.URL.Host)
	if err != nil {
		return nil, err
	}
	resp, err := c.exchange(req)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil || t.closed || c.br.Buffered() > 0 || len(t.idle[c.host]) >= maxIdlePerHost {
		c.nc.Close()
	} else {
		if t.idle == nil {
			t.idle = make(map[string][]*clientConn)
		}
		t.idle[c.host] = append(t.idle[c.host], c)
	}
	return resp, err
}

// conn takes the newest live idle connection to host, or dials one.
func (t *Transport) conn(ctx context.Context, host string) (*clientConn, error) {
	for {
		t.mu.Lock()
		idle, closed := t.idle[host], t.closed
		if closed || len(idle) == 0 {
			t.mu.Unlock()
			if closed {
				return nil, errors.New("frame: transport closed")
			}
			return dial(ctx, host)
		}
		c := idle[len(idle)-1]
		t.idle[host] = idle[:len(idle)-1]
		t.mu.Unlock()
		if c.alive() {
			return c, nil
		}
		c.nc.Close()
	}
}

func dial(ctx context.Context, host string) (*clientConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	c := &clientConn{host: host, nc: nc, br: bufio.NewReaderSize(nc, 4<<10)}
	c.raw, _ = nc.(*net.TCPConn).SyscallConn() // nil: no liveness check
	stop := c.watch(ctx)
	var resp *http.Response // the upgrade's 101
	if _, err = io.WriteString(nc, "GET / HTTP/1.1\r\nHost: "+host+"\r\nConnection: Upgrade\r\nUpgrade: "+Protocol+"\r\n\r\n"); err == nil {
		resp, err = http.ReadResponse(c.br, nil)
	}
	if !stop() {
		err = ctx.Err()
	} else if err == nil && (resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != Protocol) {
		err = fmt.Errorf("frame: %s did not upgrade: %s", host, resp.Status)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// clientConn is one dialed, upgraded connection.
type clientConn struct {
	host string
	nc   net.Conn
	raw  syscall.RawConn
	br   *bufio.Reader
	buf  []byte // the last request frame, kept up to keepBytes
}

// watch turns ctx's end into a past deadline on the connection; stop
// reports false when that happened, and the connection is then spent.
func (c *clientConn) watch(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) }) //nolint:errcheck // the exchange fails
}

// exchange writes req as one frame and reads the reply frame.
func (c *clientConn) exchange(req *http.Request) (*http.Response, error) {
	head := appendField(appendField(append(c.buf[:0], 0, 0, 0, 0), req.Method), req.URL.RequestURI())
	buf := bytes.NewBuffer(appendHeader(head, req.Header))
	if req.Body != nil {
		if _, err := buf.ReadFrom(req.Body); err != nil {
			return nil, err
		}
	}
	frame := buf.Bytes()
	if uint64(len(frame)-4) > math.MaxUint32 {
		return nil, ErrTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if cap(frame) <= keepBytes {
		c.buf = frame
	}
	stop := c.watch(req.Context())
	_, err := c.nc.Write(frame)
	var p []byte
	if err == nil {
		p, err = readFrame(c.br, MaxReplyBytes)
	}
	var resp *http.Response
	if err == nil {
		resp, err = DecodeReply(p)
	}
	if !stop() {
		return nil, req.Context().Err()
	}
	if err == nil {
		resp.Request = req
	}
	return resp, err
}
