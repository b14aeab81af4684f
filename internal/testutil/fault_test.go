package testutil

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"stsmatch/internal/frame"
)

func newCountingBackend(t *testing.T, body string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(body)) //nolint:errcheck
	})})
	t.Cleanup(ts.Close)
	return ts, &hits
}

func TestFaultTransportScript(t *testing.T) {
	ts, hits := newCountingBackend(t, `{"ok":true}`)
	ft := NewFaultTransport().Script(FaultDrop, Fault500, FaultNone, FaultPartialBody)
	hc := &http.Client{Transport: ft}

	// Request 0: dropped before reaching the backend.
	if _, err := hc.Get(ts.URL); err == nil {
		t.Error("dropped request did not error")
	}
	if hits.Load() != 0 {
		t.Error("dropped request reached the backend")
	}

	// Request 1: synthesized 500, still no delivery.
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want injected 500", resp.StatusCode)
	}
	if hits.Load() != 0 {
		t.Error("injected 500 reached the backend")
	}

	// Request 2: clean pass-through.
	resp, err = hc.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(b) != `{"ok":true}` {
		t.Errorf("clean request: body %q err %v", b, err)
	}
	if hits.Load() != 1 {
		t.Errorf("backend hits = %d, want 1", hits.Load())
	}

	// Request 3: delivered but the response body is cut halfway.
	resp, err = hc.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("partial body read err = %v, want unexpected EOF", err)
	}
	if len(b) >= len(`{"ok":true}`) {
		t.Errorf("partial body delivered %d bytes, want a strict prefix", len(b))
	}

	// Beyond the script: pass-through.
	if resp, err = hc.Get(ts.URL); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := ft.Requests(); got != 5 {
		t.Errorf("Requests = %d, want 5", got)
	}
}

func TestFaultTransportSeedDeterministic(t *testing.T) {
	ts, _ := newCountingBackend(t, "ok")
	outcomes := func(seed int64) string {
		ft := NewFaultTransport().SeedRandom(seed, 0.5, FaultDrop, Fault500)
		hc := &http.Client{Transport: ft}
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			resp, err := hc.Get(ts.URL)
			switch {
			case err != nil:
				sb.WriteByte('d')
			case resp.StatusCode == http.StatusInternalServerError:
				sb.WriteByte('5')
				resp.Body.Close()
			default:
				sb.WriteByte('.')
				resp.Body.Close()
			}
		}
		return sb.String()
	}
	a, b := outcomes(7), outcomes(7)
	if a != b {
		t.Errorf("same seed, different fault sequences:\n%s\n%s", a, b)
	}
	if !strings.ContainsAny(a, "d5") || !strings.Contains(a, ".") {
		t.Errorf("seeded plan degenerate: %s", a)
	}
	if c := outcomes(8); c == a {
		t.Errorf("different seeds produced identical sequences (suspicious): %s", c)
	}
}

func TestFaultTransportOnly(t *testing.T) {
	ts, hits := newCountingBackend(t, "ok")
	ft := NewFaultTransport().Script(FaultDrop)
	ft.Only(func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/replicate") })
	hc := &http.Client{Transport: ft}

	// Non-matching requests pass through without consuming the script.
	for i := 0; i < 3; i++ {
		resp, err := hc.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if hits.Load() != 3 || ft.Requests() != 0 {
		t.Errorf("non-matching: hits=%d counted=%d, want 3/0", hits.Load(), ft.Requests())
	}
	if _, err := hc.Get(ts.URL + "/v1/replicate"); err == nil {
		t.Error("matching request not dropped")
	}
}
