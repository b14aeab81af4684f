package testutil

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// named registers h as http://<name> for the rest of the test.
func named(t *testing.T, name string, h http.Handler) *host {
	t.Helper()
	hs, err := register(name, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hs.unregister)
	return hs
}

// TestCarrierSendsAtFlush: the caller has the header and what was
// written at the handler's first Flush, before it returns, and the rest
// when it returns; a response with no Flush is whole when it arrives.
func TestCarrierSendsAtFlush(t *testing.T) {
	release := make(chan struct{})
	named(t, "shard-90", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/whole" {
			io.WriteString(w, "all at once") //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "first ") //nolint:errcheck
		w.(http.Flusher).Flush()
		<-release
		io.WriteString(w, "second") //nolint:errcheck
	}))
	resp, err := http.Get("http://shard-90/stream?x=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "text/event-stream" || resp.ContentLength != -1 {
		t.Fatalf("status %d, header %v, length %d before the handler returned", resp.StatusCode, resp.Header, resp.ContentLength)
	}
	buf := make([]byte, 64)
	if n, err := resp.Body.Read(buf); err != nil || string(buf[:n]) != "first " {
		t.Fatalf("read %q, %v; want the flushed part", buf[:n], err)
	}
	close(release)
	if rest, err := io.ReadAll(resp.Body); err != nil || string(rest) != "second" {
		t.Fatalf("rest %q, %v", rest, err)
	}

	whole, err := http.Get("http://shard-90/whole")
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Body.Close()
	if body, _ := io.ReadAll(whole.Body); string(body) != "all at once" || whole.ContentLength != int64(len(body)) {
		t.Errorf("body %q, length %d", body, whole.ContentLength)
	}
}

// TestCarrierAbortEndsBothSides: an exchange aborted in flight (Kill),
// a caller's context ending, and a caller closing the body each fail the
// caller's side and end the handler's context.
func TestCarrierAbortEndsBothSides(t *testing.T) {
	started, ended := make(chan struct{}, 1), make(chan error, 1)
	hs := named(t, "shard-91", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/flush" {
			w.(http.Flusher).Flush()
		}
		started <- struct{}{}
		<-r.Context().Done()
		ended <- context.Cause(r.Context())
	}))
	var c Carrier
	call := func(ctx context.Context, path string) (*http.Response, error) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://shard-91"+path, nil)
		return c.RoundTrip(req)
	}
	killed := errors.New("killed")

	go func() { <-started; hs.abort(killed) }()
	if _, err := call(context.Background(), "/"); !errors.Is(err, killed) {
		t.Errorf("aborted exchange: err %v, want %v", err, killed)
	}
	if err := <-ended; !errors.Is(err, killed) {
		t.Errorf("aborted handler's context ended with %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	if _, err := call(ctx, "/"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled exchange: err %v", err)
	}
	<-ended

	resp, err := call(context.Background(), "/flush")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	resp.Body.Close()
	if err := <-ended; !errors.Is(err, errBodyClosed) {
		t.Errorf("closed body: the handler's context ended with %v", err)
	}
}

// TestCarrierNames: a name is one live registration; a name no cluster
// holds fails at once, never dialed; any other host goes on.
func TestCarrierNames(t *testing.T) {
	named(t, "shard-92", http.NotFoundHandler())
	if _, err := register("shard-92", http.NotFoundHandler()); err == nil {
		t.Error("a name registered twice")
	}
	var c Carrier
	req, _ := http.NewRequest(http.MethodPost, "http://shard-93/", strings.NewReader("x"))
	if _, err := c.RoundTrip(req); err == nil || !strings.Contains(err.Error(), "no live cluster") {
		t.Errorf("unregistered name: err %v", err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "plain") //nolint:errcheck
	}))
	defer ts.Close()
	c.next = http.DefaultTransport
	resp, err := (&http.Client{Transport: &c, Timeout: 5 * time.Second}).Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); string(body) != "plain" {
		t.Errorf("other host: body %q", body)
	}
}
