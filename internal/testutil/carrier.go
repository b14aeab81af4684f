package testutil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"stsmatch/internal/frame"
)

// The client hop of a test (http.Get of a cluster URL) reaches the
// cluster through the default transport, which keeps every other host
// as it was.
func init() {
	http.DefaultTransport = &Carrier{next: http.DefaultTransport}
}

// Carrier is an http.RoundTripper that delivers a request for a live
// cluster's name (http://gateway, http://shard-<i>) to that handler's
// ServeHTTP on a goroutine, with no socket, and passes a request for
// any other host to a frame carrier of its own, as production does. The
// handler's header and body reach the caller at its first Flush or when
// it returns, as net/http sends them. The zero value is ready; use it by
// pointer.
type Carrier struct {
	next   http.RoundTripper // for other hosts in place of frames: the original http.DefaultTransport
	frames frame.Transport
}

// Close closes the connections of the Carrier's own frame carrier.
func (c *Carrier) Close() { c.frames.Close() }

// RoundTrip implements http.RoundTripper.
func (c *Carrier) RoundTrip(req *http.Request) (*http.Response, error) {
	name := req.URL.Host
	names.Lock()
	h := names.m[name]
	names.Unlock()
	switch {
	case h != nil:
		return h.deliver(req)
	case name == "gateway" || strings.HasPrefix(name, "shard-"):
		return nil, refuse(req) // a name never falls through to a dial
	case c.next != nil:
		return c.next.RoundTrip(req)
	}
	return c.frames.RoundTrip(req)
}

// refuse fails a request for a name no live cluster holds.
func refuse(req *http.Request) error {
	if req.Body != nil {
		req.Body.Close() //nolint:errcheck
	}
	return fmt.Errorf("testutil: no live cluster holds the name %s", req.URL.Host)
}

// names are the hosts of the live clusters.
var names struct {
	sync.Mutex
	m map[string]*host
}

// register gives h the name, refusing one a live cluster holds.
func register(name string, h http.Handler) (*host, error) {
	names.Lock()
	defer names.Unlock()
	if names.m[name] != nil {
		return nil, fmt.Errorf("testutil: the name %s is registered twice: a cluster still holds it", name)
	}
	if names.m == nil {
		names.m = make(map[string]*host)
	}
	hs := &host{name: name, h: h, live: make(map[*exchange]bool)}
	names.m[name] = hs
	return hs, nil
}

// unregister frees the name and returns once the exchanges it still
// serves are done, as httptest.Server.Close does.
func (h *host) unregister() {
	names.Lock()
	delete(names.m, h.name)
	names.Unlock()
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.busy.Wait()
}

// host is one registered name: its handler, the exchanges in flight and
// how many were delivered.
type host struct {
	name      string
	h         http.Handler
	exchanges atomic.Int64

	mu     sync.Mutex
	live   map[*exchange]bool
	closed bool           // unregistered: no exchange starts
	busy   sync.WaitGroup // the handlers running
}

// abort fails every exchange in flight with cause: the caller's
// RoundTrip or body read returns it, and the handler's context ends.
func (h *host) abort(cause error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for x := range h.live {
		x.cancel(cause)
	}
}

// deliver serves req on a goroutine and returns once the handler has
// flushed or returned, or the exchange failed.
func (h *host) deliver(req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancelCause(req.Context())
	x := &exchange{cancel: cancel, header: make(http.Header)}
	x.cond.L = &x.mu
	// The exchange fails when the caller's context ends, the caller
	// closes the body, or it is aborted, whether or not the handler
	// returns; after it returned whole, that changes nothing.
	context.AfterFunc(ctx, func() { x.fail(context.Cause(ctx)) })

	// The request as a server reads it.
	r := req.Clone(ctx)
	r.URL = &url.URL{Path: req.URL.Path, RawPath: req.URL.RawPath, RawQuery: req.URL.RawQuery}
	r.RequestURI, r.Host = req.URL.RequestURI(), h.name
	if r.Body == nil {
		r.Body = http.NoBody
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		cancel(nil)
		return nil, refuse(req)
	}
	h.live[x] = true
	h.busy.Add(1)
	h.mu.Unlock()
	h.exchanges.Add(1)
	go func() {
		defer h.busy.Done()
		defer func() {
			h.mu.Lock()
			delete(h.live, x)
			h.mu.Unlock()
			r.Body.Close() //nolint:errcheck
			if p := recover(); p != nil {
				if p != http.ErrAbortHandler {
					log.Printf("testutil: panic serving %s%s: %v\n%s", h.name, r.RequestURI, p, debug.Stack())
				}
				cancel(fmt.Errorf("testutil: %s aborted the exchange: %w", h.name, io.ErrUnexpectedEOF))
			}
			if ctx.Err() != nil { // aborted, or the caller left
				x.fail(context.Cause(ctx))
			}
			x.finish()
			cancel(nil)
		}()
		h.h.ServeHTTP(x, r)
	}()

	x.mu.Lock()
	defer x.mu.Unlock()
	for !x.sent && x.end == nil {
		x.cond.Wait()
	}
	if !x.sent {
		return nil, x.end
	}
	resp := &http.Response{
		Status:     fmt.Sprintf("%d %s", x.code, http.StatusText(x.code)),
		StatusCode: x.code,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        x.written,
		Body:          x,
		ContentLength: -1,
		Request:       req,
	}
	if x.end == io.EOF {
		resp.ContentLength = int64(len(x.buf))
	}
	return resp, nil
}

// exchange is one request in memory: the handler's ResponseWriter on
// one side, the caller's response body on the other.
type exchange struct {
	cancel context.CancelCauseFunc
	header http.Header // the handler's; only its goroutine touches it

	mu      sync.Mutex
	cond    sync.Cond // signalled when sent, flushed or end changes
	code    int
	written http.Header // the header as of WriteHeader
	sent    bool        // the header and buf[:flushed] are the caller's
	buf     []byte      // the body not yet read; buf[:flushed] is sent
	flushed int
	end     error // io.EOF once the handler returned, else why the exchange failed
}

func (x *exchange) Header() http.Header { return x.header }

func (x *exchange) WriteHeader(code int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.writeHeader(code)
}

func (x *exchange) writeHeader(code int) {
	if x.code == 0 && code >= 200 {
		x.code = code
		x.written = x.header.Clone()
	}
}

func (x *exchange) Write(p []byte) (int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.end != nil {
		return 0, x.end
	}
	x.writeHeader(http.StatusOK)
	x.buf = append(x.buf, p...)
	return len(p), nil
}

// Flush sends the header and the body written so far.
func (x *exchange) Flush() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.send()
}

// send makes what was written readable; x.mu is held.
func (x *exchange) send() {
	if x.end != nil && x.end != io.EOF {
		return
	}
	x.writeHeader(http.StatusOK)
	x.flushed, x.sent = len(x.buf), true
	x.cond.Broadcast()
}

// finish sends the rest once the handler returned.
func (x *exchange) finish() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.end == nil {
		x.end = io.EOF
		x.send()
	}
}

// fail ends an exchange the handler has not finished: what it did not
// flush is lost.
func (x *exchange) fail(err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.end == nil {
		x.end = err
		x.cond.Broadcast()
	}
}

var errBodyClosed = errors.New("testutil: read on a closed response body")

// Read reads the sent body, waiting for the handler's next flush.
func (x *exchange) Read(p []byte) (int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for x.flushed == 0 {
		if x.end != nil {
			return 0, x.end
		}
		x.cond.Wait()
	}
	n := copy(p, x.buf[:x.flushed])
	x.buf, x.flushed = x.buf[n:], x.flushed-n
	return n, nil
}

// Close ends the exchange for the handler too: its context ends and its
// writes fail.
func (x *exchange) Close() error {
	x.cancel(errBodyClosed)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.end, x.buf, x.flushed = errBodyClosed, nil, 0
	x.cond.Broadcast()
	return nil
}
