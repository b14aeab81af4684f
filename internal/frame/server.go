package frame

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

const (
	// keepBytes is the largest frame buffer kept between exchanges.
	keepBytes = 8 << 10
	// headAllowance is what a request frame may hold beyond its body's
	// cap: the method, URI and header pairs.
	headAllowance = 64 << 10
)

// Server is an http.Handler that serves a request to upgrade over
// frames and passes any other to Handler.
type Server struct {
	Handler http.Handler
	// MaxBody caps a request frame at MaxBody plus a header allowance; a
	// longer one is answered 413 unread and its connection closed. Zero
	// or negative: no cap.
	MaxBody int64

	mu     sync.Mutex
	conns  map[*serverConn]bool // true while an exchange runs
	closed bool
	busy   sync.WaitGroup
}

// ServeHTTP takes an upgrade request's connection over and serves frames
// on it until the peer closes it, an exchange fails or the Server
// closes. Framed requests go to the serving http.Server's Handler — the
// outermost, so a wrapper around this Server sees them too — else to
// s.Handler. That http.Server's ReadTimeout bounds each frame, its
// IdleTimeout (else ReadTimeout) the wait between frames.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if up := r.Header["Upgrade"]; len(up) != 1 || up[0] != Protocol || !ok {
		s.Handler.ServeHTTP(w, r)
		return
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer nc.Close()
	c := &serverConn{srv: s, h: s.Handler, nc: nc, br: brw.Reader, ctx: r.Context(), host: r.Host, remote: r.RemoteAddr,
		rw: replyWriter{header: make(http.Header)}}
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		c.h = cmp.Or(hs.Handler, c.h)
		c.readTimeout, c.idleTimeout = hs.ReadTimeout, cmp.Or(hs.IdleTimeout, hs.ReadTimeout)
	}
	if !s.set(c, false) {
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	nc.SetDeadline(time.Time{}) //nolint:errcheck // a dead connection fails its first read
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+Protocol+"\r\n\r\n"); err == nil {
		c.serve()
	}
}

// Close closes every idle framed connection at once and every busy one
// after its reply, and returns when no exchange runs.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c, busy := range s.conns {
		if !busy {
			c.nc.Close()
		}
	}
	s.mu.Unlock()
	s.busy.Wait()
}

// set marks c idle or busy. It reports false once the server is
// closing: no connection or exchange starts then, and c should close.
func (s *Server) set(c *serverConn, busy bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns[c] {
		s.busy.Done()
	}
	if s.closed {
		return false
	}
	if busy {
		s.busy.Add(1)
	}
	if s.conns == nil {
		s.conns = make(map[*serverConn]bool)
	}
	s.conns[c] = busy
	return true
}

// serverConn is one framed connection being served.
type serverConn struct {
	srv                      *Server
	h                        http.Handler
	nc                       net.Conn
	br                       *bufio.Reader
	ctx                      context.Context
	host, remote             string
	readTimeout, idleTimeout time.Duration
	rw                       replyWriter
}

func (c *serverConn) serve() {
	max := int(c.srv.MaxBody)
	if max > 0 {
		max += headAllowance
	}
	for {
		c.nc.SetReadDeadline(deadline(c.idleTimeout)) //nolint:errcheck // a dead connection fails the read
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		c.nc.SetReadDeadline(deadline(c.readTimeout)) //nolint:errcheck
		payload, err := readFrame(c.br, max)
		if err == ErrTooLarge {
			c.rw.reset()
			http.Error(&c.rw, err.Error(), http.StatusRequestEntityTooLarge)
			c.nc.Write(c.rw.frame()) //nolint:errcheck // the connection closes either way
		}
		if err != nil || !c.srv.set(c, true) {
			return
		}
		ok := c.exchange(payload)
		if !c.srv.set(c, false) || !ok {
			return
		}
	}
}

func deadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// exchange answers one request frame. It reports false when the
// connection must close: the handler panicked or the reply failed.
func (c *serverConn) exchange(payload []byte) bool {
	c.rw.reset()
	req, err := DecodeRequest(payload)
	switch {
	case err != nil:
		http.Error(&c.rw, err.Error(), http.StatusBadRequest)
	case len(req.Header["Upgrade"]) > 0:
		http.Error(&c.rw, "frame: upgrade inside a frame", http.StatusBadRequest)
	default:
		req.Host, req.RemoteAddr = c.host, c.remote
		if !c.dispatch(req.WithContext(c.ctx)) {
			return false
		}
	}
	_, err = c.nc.Write(c.rw.frame())
	if cap(c.rw.buf) > keepBytes {
		c.rw.buf = nil
	}
	return err == nil
}

// dispatch runs the handler. A panic closes the connection without a
// reply, as net/http does; http.ErrAbortHandler is not logged.
func (c *serverConn) dispatch(r *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			log.Printf("frame: panic serving %s: %v\n%s", c.remote, p, debug.Stack())
		}
	}()
	c.h.ServeHTTP(&c.rw, r)
	return true
}

// replyWriter builds the reply frame in place: length, status and
// header pairs once the header is written, then the body as it comes.
type replyWriter struct {
	header http.Header
	buf    []byte
	wrote  bool
}

func (w *replyWriter) reset() {
	clear(w.header)
	w.buf, w.wrote = append(w.buf[:0], 0, 0, 0, 0), false
}

func (w *replyWriter) Header() http.Header { return w.header }

func (w *replyWriter) WriteHeader(code int) {
	if !w.wrote && code >= 200 {
		w.wrote = true
		w.buf = appendHeader(binary.BigEndian.AppendUint16(w.buf[:4], uint16(code)), w.header)
	}
}

func (w *replyWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// frame finishes the reply and returns it, length prefix included.
func (w *replyWriter) frame() []byte {
	w.Write(nil) //nolint:errcheck // a 200 header if the handler wrote none
	binary.BigEndian.PutUint32(w.buf, uint32(len(w.buf)-4))
	return w.buf
}
