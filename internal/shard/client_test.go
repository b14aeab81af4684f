package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/frame"
	"stsmatch/internal/fsm"
	"stsmatch/internal/server"
)

// fastOpts keeps retry/backoff timing negligible in tests; the active
// checker is disabled so tests drive probes deterministically via
// ProbeAll. ReadmitThreshold 1 readmits on a single passing probe so
// the ejection tests stay focused; flap damping has its own test
// (TestFlapDampingRequiresConsecutiveSuccesses).
func fastOpts() Options {
	return Options{
		Timeout:          2 * time.Second,
		MaxRetries:       2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		HealthInterval:   -1,
		FailThreshold:    3,
		ReadmitThreshold: 1,
	}
}

func TestPoolRetriesIdempotent(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	})})
	defer ts.Close()

	p, err := NewPool([]string{ts.URL}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.Backends()[0]

	status, body, _, err := p.do(context.Background(), b, http.MethodGet, "/", "", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Errorf("status %d after retries, want 200", status)
	}
	if string(body) != `{"ok":true}` {
		t.Errorf("body %q", body)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

func TestPoolNoRetryOnMutation(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	})})
	defer ts.Close()

	p, err := NewPool([]string{ts.URL}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	status, _, _, err := p.do(context.Background(), p.Backends()[0], http.MethodPost, "/", "application/json", []byte("[]"), false)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 passed through", status)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("non-idempotent call attempted %d times, want exactly 1", got)
	}
}

func TestPoolEjectionAndReadmission(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			// Simulate a dead process: hijack-close would be more
			// realistic, but an error status on /v1/healthz is what the
			// prober treats as failure too.
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	})})
	defer ts.Close()

	opts := fastOpts()
	p, err := NewPool([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.Backends()[0]
	if !b.Healthy() {
		t.Fatal("backend must start healthy")
	}

	down.Store(true)
	for i := 0; i < opts.FailThreshold; i++ {
		p.ProbeAll()
	}
	if b.Healthy() {
		t.Fatalf("backend still healthy after %d failed probes", opts.FailThreshold)
	}
	if p.NumHealthy() != 0 {
		t.Error("NumHealthy != 0 after ejection")
	}

	down.Store(false)
	p.ProbeAll()
	if !b.Healthy() {
		t.Error("backend not readmitted by a successful probe")
	}
	if p.NumHealthy() != 1 {
		t.Error("NumHealthy != 1 after readmission")
	}
}

// TestScatterSkipsEjectedInOrderConcurrently: scatter never calls an
// ejected backend and reports it as unhealthy (ejected), answers in
// backend order, and runs the healthy calls concurrently: each blocks
// until all of them have started.
func TestScatterSkipsEjectedInOrderConcurrently(t *testing.T) {
	urls := []string{"http://a.invalid", "http://b.invalid", "http://c.invalid", "http://d.invalid"}
	p, err := NewPool(urls, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const ejected = 2
	p.ByURL(urls[ejected]).healthy.Store(false)

	var started sync.WaitGroup
	started.Add(len(urls) - 1)
	all := make(chan struct{})
	go func() { started.Wait(); close(all) }()
	answers := scatter(p, func(b *Backend) (string, error) {
		if b.URL() == urls[ejected] {
			t.Errorf("ejected backend %s called", b.URL())
			return "", nil
		}
		started.Done()
		select {
		case <-all:
			return b.URL(), nil
		case <-time.After(5 * time.Second):
			return "", errors.New("the calls did not all start")
		}
	})
	if len(answers) != len(urls) {
		t.Fatalf("%d answers for %d backends", len(answers), len(urls))
	}
	for i, a := range answers {
		if a.backend.URL() != urls[i] {
			t.Errorf("answer %d from %s, want %s", i, a.backend.URL(), urls[i])
		}
		switch {
		case i == ejected && (a.err == nil || a.err.Error() != "unhealthy (ejected)" || a.val != ""):
			t.Errorf("ejected backend answered %q, %v; want unhealthy (ejected)", a.val, a.err)
		case i != ejected && (a.err != nil || a.val != urls[i]):
			t.Errorf("backend %s answered %q, %v", urls[i], a.val, a.err)
		}
	}
}

func TestPoolPassiveFailureDetection(t *testing.T) {
	// A backend that stops responding is ejected by request failures
	// alone, without waiting for the active checker.
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})})
	opts := fastOpts()
	opts.Timeout = 200 * time.Millisecond
	p, err := NewPool([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.Backends()[0]
	ts.Close() // kill the backend

	for i := 0; i < opts.FailThreshold; i++ {
		if _, _, _, err := p.do(context.Background(), b, http.MethodGet, "/", "", nil, false); err == nil {
			t.Fatal("request to a closed backend succeeded")
		}
	}
	if b.Healthy() {
		t.Error("backend not ejected after repeated request failures")
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, Options{}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPool([]string{"http://a", "http://a"}, Options{HealthInterval: -1}); err == nil {
		t.Error("duplicate backend accepted")
	}
	if _, err := NewPool([]string{""}, Options{HealthInterval: -1}); err == nil {
		t.Error("empty URL accepted")
	}
}

// TestPoolResponseTooLarge: a backend response one byte over the cap —
// a reply frame the carrier refuses unread — is an error, not a success
// carrying the first frame.MaxReplyBytes. The call is idempotent, yet
// the backend is asked once (a retry would fetch the same bytes), and it
// stays admitted at a fail threshold of one (it answered; only its
// answer was unusable). The gateway answers such a response with a 502.
func TestPoolResponseTooLarge(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if _, plain := w.(http.Hijacker); plain { // a framed request's writer is no Hijacker
			t.Errorf("%s arrived over plain HTTP, want a frame", r.URL.Path)
		}
		chunk := make([]byte, 64<<10)
		for left := frame.MaxReplyBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(len(chunk), left)]); err != nil {
				return
			}
		}
	})})
	defer ts.Close()

	opts := fastOpts()
	opts.FailThreshold = 1
	// The backend buffers the whole 64 MiB reply before its length goes
	// out, which takes seconds on a loaded machine; the timeout is not
	// under test, so it leaves room for that.
	opts.Timeout = time.Minute
	p, err := NewPool([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.Backends()[0]

	status, body, _, err := p.do(context.Background(), b, http.MethodGet, "/v1/sessions/S/plr", "", nil, true)
	if !errors.Is(err, errResponseTooLarge) {
		t.Fatalf("do = status %d, %d body bytes, err %v; want an error wrapping errResponseTooLarge", status, len(body), err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d requests, want exactly 1 (no retry)", got)
	}
	if !b.Healthy() {
		t.Error("backend ejected for an oversized answer")
	}

	// Through the gateway, a session's PLR that does not fit is a 502
	// naming the cause, never a 200 carrying cut-off JSON.
	gw, err := NewGateway([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	_, _, commit, err := gw.placements.create("S", "P", gw.healthy)
	if err != nil {
		t.Fatal(err)
	}
	commit()
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/S/plr", nil))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), errResponseTooLarge.Error()) {
		t.Errorf("gateway relayed status %d, %.200s; want 502 naming the oversized response", rec.Code, rec.Body.String())
	}
}

// TestPoolBackendRestarted: a backend restarted on its URL leaves the
// pool holding connections its old process closed. The next call — a
// non-idempotent ingest, which is never sent twice — reaches the new
// process on a fresh connection: it succeeds, runs once, and nothing
// counts against the backend's health (one failure would eject it here).
func TestPoolBackendRestarted(t *testing.T) {
	dir := t.TempDir()
	start := func(addr string) (*server.Server, *http.Server, string) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), server.Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln) //nolint:errcheck // ErrServerClosed
		return srv, hs, ln.Addr().String()
	}
	srv, hs, addr := start("127.0.0.1:0")
	opts := fastOpts()
	opts.FailThreshold, opts.MaxRetries = 1, -1
	p, err := NewPool([]string{"http://" + addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.Backends()[0]
	ctx := context.Background()
	if status, body, _, err := p.do(ctx, b, http.MethodPost, "/v1/sessions", "application/json",
		[]byte(`{"patientId":"P","sessionId":"S"}`), false); err != nil || status != http.StatusCreated {
		t.Fatalf("create: %d %s %v", status, body, err)
	}

	hs.Close()
	if err := srv.Close(); err != nil { // its framed connections, then a snapshot
		t.Fatal(err)
	}
	srv, hs, _ = start(addr)
	defer srv.Close()
	defer hs.Close()

	status, body, _, err := p.do(ctx, b, http.MethodPost, "/v1/sessions/S/samples", "application/json",
		[]byte(`[{"t":0,"pos":[1]},{"t":0.1,"pos":[2]},{"t":0.2,"pos":[3]}]`), false)
	if err != nil || status != http.StatusOK {
		t.Fatalf("ingest after the restart: %d %s %v", status, body, err)
	}
	var sr server.SamplesResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.TotalSamples != 3 {
		t.Errorf("ingest after the restart: %s (%v); want 3 samples in total, sent once", body, err)
	}
	if !b.Healthy() || b.fails.Load() != 0 {
		t.Errorf("restarted backend: healthy %v, %d failures counted; want healthy with none", b.Healthy(), b.fails.Load())
	}
}

// TestFreshnessIntervalDefault: the name dates from the follower-read
// freshness poller. Options.FreshnessInterval is deprecated and ignored,
// so a gateway asked to poll every millisecond sends no /v1/shard/stats
// request at all.
func TestFreshnessIntervalDefault(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard/stats" {
			polls.Add(1)
		}
		w.Write([]byte(`{}`)) //nolint:errcheck
	})})
	defer ts.Close()
	g, err := NewGateway([]string{ts.URL}, Options{Replicas: 2, HealthInterval: -1, FreshnessInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	g.Close()
	if n := polls.Load(); n != 0 {
		t.Errorf("gateway polled /v1/shard/stats %d times in 50ms; want none", n)
	}
}

func TestBackoffBounds(t *testing.T) {
	p := &Pool{opts: fastOpts().withDefaults()}
	for n := 1; n < 20; n++ {
		d := p.backoff(n)
		if d <= 0 || d > p.opts.BackoffMax {
			t.Fatalf("backoff(%d) = %v out of (0, %v]", n, d, p.opts.BackoffMax)
		}
	}
}

// TestReadAllAtDeclaredLength: a body that declares its length is read
// into one buffer of that length (plus the byte that meets the end),
// whatever it turns out to hold; an unknown length reads as io.ReadAll
// does; and a gateway body over the proxy cap is still a 413.
func TestReadAllAtDeclaredLength(t *testing.T) {
	body := strings.Repeat("0123456789", 150)
	for _, tc := range []struct {
		declared int64
		wantCap  int
	}{
		{int64(len(body)), len(body) + 1},
		{-1, 0}, // io.ReadAll's growth
		{10, 0}, // declared short: read on past it
		{server.DefaultMaxBodyBytes + 1, 0},
	} {
		got, err := readAll(strings.NewReader(body), tc.declared)
		if err != nil || string(got) != body {
			t.Fatalf("declared %d: %d bytes, %v", tc.declared, len(got), err)
		}
		if tc.wantCap > 0 && cap(got) != tc.wantCap {
			t.Errorf("declared %d: a buffer of %d for %d bytes", tc.declared, cap(got), len(got))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := readAll(strings.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 { // the buffer, and the reader the closure builds
		t.Errorf("a declared-length read allocates %v times", allocs)
	}

	over := strings.Repeat(" ", server.DefaultMaxBodyBytes+1)
	for _, declared := range []bool{true, false} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(over))
		if !declared {
			r.ContentLength = -1
		}
		if _, err := readBody(httptest.NewRecorder(), r); bodyErrCode(err) != http.StatusRequestEntityTooLarge {
			t.Errorf("declared %v: a body over the cap gave %v, status %d", declared, err, bodyErrCode(err))
		}
	}
}
