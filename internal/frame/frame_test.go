package frame

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echo answers every request with its method, URI, one header and its
// body, and reports whether it arrived in a frame: only a plain HTTP
// request's writer can be hijacked.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	_, plain := w.(http.Hijacker)
	w.Header().Set("X-Framed", fmt.Sprint(!plain))
	w.Header().Set("X-Echo", r.Header.Get("X-Echo"))
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "%s %s ", r.Method, r.URL.RequestURI())
	w.Write(body) //nolint:errcheck
}

// serve runs h behind a Server on a loopback server, with the
// http.Server's own timeouts applied by cfg.
func serve(t *testing.T, h http.HandlerFunc, cfg func(*http.Server)) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(&Server{Handler: h})
	if cfg != nil {
		cfg(ts.Config)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

func newTransport(t *testing.T) *Transport {
	tr := new(Transport)
	t.Cleanup(tr.Close)
	return tr
}

func call(t testing.TB, tr http.RoundTripper, ctx context.Context, method, url, body string) (*http.Response, string, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 4<<10 {
		req.Header.Set("X-Echo", body)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp, string(got), err
}

func (t *Transport) idleConns() (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.idle {
		n += len(l)
	}
	return n
}

// TestTransportConcurrentExchanges: 32 goroutines share one Transport.
// Every reply is the one its request asked for, every request arrives
// in a frame, and no more connections stay open than ran at once.
func TestTransportConcurrentExchanges(t *testing.T) {
	ts := serve(t, echo, nil)
	tr := newTransport(t)
	const workers, each = 32, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := strings.Repeat(fmt.Sprintf("w%d-i%d;", w, i), 1+(w*i)%300)
				resp, got, err := call(t, tr, context.Background(), http.MethodPost, ts.URL+"/v1/x%2Fy?q=1", body)
				if err != nil {
					t.Error(err)
					return
				}
				if want := "POST /v1/x%2Fy?q=1 " + body; got != want || resp.StatusCode != http.StatusAccepted ||
					resp.Header.Get("X-Echo") != body || resp.Header.Get("X-Framed") != "true" {
					t.Errorf("worker %d op %d: status %d, framed %q, body %.60q", w, i, resp.StatusCode, resp.Header.Get("X-Framed"), got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if idle := tr.idleConns(); idle == 0 || idle > workers {
		t.Errorf("after the run: %d idle connections, want 1 to %d", idle, workers)
	}
}

// TestTransportContextEndsExchange: a cancel or a deadline reached while
// the handler runs fails the exchange with the context's error and
// discards its connection; the next call dials afresh and succeeds.
func TestTransportContextEndsExchange(t *testing.T) {
	release := make(chan struct{})
	var upgrades atomic.Int32
	ts := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-release
		}
		echo(w, r)
	}, func(hs *http.Server) {
		hs.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateHijacked {
				upgrades.Add(1)
			}
		}
	})
	defer close(release)
	tr := newTransport(t)
	if _, _, err := call(t, tr, context.Background(), http.MethodGet, ts.URL+"/", ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []error{context.Canceled, context.DeadlineExceeded} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if want == context.Canceled {
			ctx, cancel = context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
		}
		_, _, err := call(t, tr, ctx, http.MethodPost, ts.URL+"/slow", "x")
		cancel()
		if !errors.Is(err, want) {
			t.Errorf("err = %v, want %v", err, want)
		}
		if idle := tr.idleConns(); idle != 0 {
			t.Errorf("after %v: %d idle connections; want the cancelled one discarded", want, idle)
		}
		if _, got, err := call(t, tr, context.Background(), http.MethodGet, ts.URL+"/after", ""); err != nil || got != "GET /after " {
			t.Errorf("next call: %q, %v", got, err)
		}
	}
	if n := upgrades.Load(); n != 3 {
		t.Errorf("%d connections upgraded, want 3 (one per discarded connection)", n)
	}
}

// TestPooledConnectionClosedWhileIdle: a server's IdleTimeout closes a
// pooled connection between frames; the next call of any method finds
// a fresh one, with no error.
func TestPooledConnectionClosedWhileIdle(t *testing.T) {
	ts := serve(t, echo, func(hs *http.Server) { hs.IdleTimeout = 30 * time.Millisecond })
	tr := newTransport(t)
	for i, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
		if i > 0 {
			time.Sleep(120 * time.Millisecond)
		}
		if resp, _, err := call(t, tr, context.Background(), method, ts.URL+"/", "b"); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s after an idle close: %v", method, err)
		}
	}
}

// handshake upgrades a raw connection by hand.
func handshake(t *testing.T, url string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(nc)
	io.WriteString(nc, "GET / HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: "+Protocol+"\r\n\r\n") //nolint:errcheck
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v", err)
	}
	return nc, br
}

// readReplyFrame reads one reply frame: its status and body.
func readReplyFrame(t *testing.T, br *bufio.Reader) (int, string) {
	t.Helper()
	p, err := readFrame(br, 0)
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	resp, err := DecodeReply(p)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func writeRequestFrame(t *testing.T, nc net.Conn, uri string, h http.Header) {
	t.Helper()
	p := requestPayload("GET", uri, h, nil)
	if _, err := nc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)); err != nil {
		t.Fatal(err)
	}
}

// TestOverCapFramesRefused: a request frame announcing more than the
// body cap plus the header allowance is answered 413 and the connection
// closed, without the payload ever being sent; a reply frame announcing
// more than MaxReplyBytes is ErrTooLarge before its payload is read.
func TestOverCapFramesRefused(t *testing.T) {
	ts := httptest.NewServer(&Server{Handler: http.HandlerFunc(echo), MaxBody: 1 << 10})
	defer ts.Close()
	nc, br := handshake(t, ts.URL)
	nc.Write(binary.BigEndian.AppendUint32(nil, 1<<10+headAllowance+1)) //nolint:errcheck
	if status, _ := readReplyFrame(t, br); status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap request answered %d, want 413", status)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after the 413 the connection reads %v, want EOF", err)
	}

	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		nc, brw, _ := w.(http.Hijacker).Hijack()
		defer nc.Close()
		io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+Protocol+"\r\n\r\n") //nolint:errcheck
		var n uint32
		binary.Read(brw, binary.BigEndian, &n)                        //nolint:errcheck
		io.CopyN(io.Discard, brw, int64(n))                           //nolint:errcheck
		nc.Write(binary.BigEndian.AppendUint32(nil, MaxReplyBytes+1)) //nolint:errcheck
	}))
	defer liar.Close()
	if _, _, err := call(t, newTransport(t), context.Background(), http.MethodGet, liar.URL+"/", ""); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-cap reply: err = %v, want ErrTooLarge", err)
	}
}

// TestFramedRequestRefusals: a handler that panics http.ErrAbortHandler
// closes the connection without a reply; an upgrade inside a frame and a
// payload that does not decode are answered 400 on a connection that
// stays usable.
func TestFramedRequestRefusals(t *testing.T) {
	ts := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			panic(http.ErrAbortHandler)
		}
		echo(w, r)
	}, nil)
	nc, br := handshake(t, ts.URL)
	writeRequestFrame(t, nc, "/", http.Header{"Upgrade": {Protocol}})
	if status, _ := readReplyFrame(t, br); status != http.StatusBadRequest {
		t.Errorf("upgrade inside a frame answered %d, want 400", status)
	}
	nc.Write([]byte{0, 0, 0, 5, 0, 0, 0, 9, 'x'}) //nolint:errcheck // a method length past the payload
	if status, _ := readReplyFrame(t, br); status != http.StatusBadRequest {
		t.Errorf("malformed payload answered %d, want 400", status)
	}
	writeRequestFrame(t, nc, "/ok", nil)
	if status, body := readReplyFrame(t, br); status != http.StatusAccepted || body != "GET /ok " {
		t.Errorf("request after refusals: %d %q", status, body)
	}
	writeRequestFrame(t, nc, "/abort", nil)
	if b, err := br.ReadByte(); err != io.EOF {
		t.Errorf("aborted handler: read %q, %v; want EOF with no reply", b, err)
	}
}

// TestEventStreamsStayOnHTTP: a request that accepts text/event-stream
// is carried by net/http, not in a frame.
func TestEventStreamsStayOnHTTP(t *testing.T) {
	ts := serve(t, echo, nil)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := newTransport(t).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Framed") != "false" {
		t.Errorf("event stream request framed = %q, want false", resp.Header.Get("X-Framed"))
	}
}

// TestIdleConnectionBuffers: after a 1 MiB request and a 1 MiB reply,
// the idle connection keeps at most 16 KiB of buffers on each side.
func TestIdleConnectionBuffers(t *testing.T) {
	fs := &Server{Handler: http.HandlerFunc(echo)}
	ts := httptest.NewServer(fs)
	defer ts.Close()
	tr := newTransport(t)
	big := strings.Repeat("x", 1<<20)
	if _, got, err := call(t, tr, context.Background(), http.MethodPost, ts.URL+"/", big); err != nil || len(got) != len(big)+len("POST / ") {
		t.Fatalf("1 MiB exchange: %d bytes, %v", len(got), err)
	}
	tr.mu.Lock()
	for _, l := range tr.idle {
		for _, c := range l {
			if kept := c.br.Size() + cap(c.buf); kept > 16<<10 {
				t.Errorf("idle client connection keeps %d bytes", kept)
			}
		}
	}
	tr.mu.Unlock()
	// The reply can arrive before the server has put its buffers down:
	// wait until no exchange runs.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		fs.mu.Lock()
		busy := false
		for c, b := range fs.conns {
			busy = busy || b
			if kept := c.br.Size() + cap(c.rw.buf); !b && kept > 16<<10 {
				t.Errorf("idle served connection keeps %d bytes", kept)
			}
		}
		fs.mu.Unlock()
		if !busy || time.Now().After(deadline) {
			break
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	h := http.Header{"Content-Type": {"application/json"}, "X-Multi": {"a", "b"}, "Traceparent": {"00-ab-cd-01"}}
	got, err := DecodeRequest(requestPayload("POST", "/v1/sessions/a%2Fb/samples?x=1", h, []byte("[1,2]")))
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := io.ReadAll(got.Body); got.Method != "POST" || got.RequestURI != "/v1/sessions/a%2Fb/samples?x=1" ||
		got.URL.Path != "/v1/sessions/a/b/samples" || string(body) != "[1,2]" || fmt.Sprint(got.Header) != fmt.Sprint(h) {
		t.Fatalf("request round trip: %+v", got)
	}
	got.Header["X-Multi"] = append(got.Header["X-Multi"], "c") // must not overwrite the next key's value
	if got.Header.Get("Traceparent") != "00-ab-cd-01" {
		t.Error("appending to one key's values changed another key")
	}
}
