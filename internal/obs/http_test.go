package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRequestIDAssignsAndEchoes(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" {
		t.Fatal("no request ID in context")
	}
	if got := rec.Header().Get("X-Request-Id"); got != seen {
		t.Fatalf("response header %q != context id %q", got, seen)
	}

	// An incoming ID is propagated, not replaced.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-Id", "client-123")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-123" || rec.Header().Get("X-Request-Id") != "client-123" {
		t.Fatalf("incoming id not propagated: ctx=%q header=%q", seen, rec.Header().Get("X-Request-Id"))
	}
}

func TestHTTPMetricsWrap(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "t")
	okh := m.Wrap("ok", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if m.InFlight.Value() != 1 {
			t.Errorf("in-flight inside handler = %d, want 1", m.InFlight.Value())
		}
	}))
	errh := m.Wrap("boom", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	for i := 0; i < 3; i++ {
		okh.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))
	}
	errh.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/boom", nil))

	if got := m.Requests.With("ok", "2xx").Value(); got != 3 {
		t.Fatalf("ok 2xx = %d, want 3", got)
	}
	if got := m.Requests.With("boom", "5xx").Value(); got != 1 {
		t.Fatalf("boom 5xx = %d, want 1", got)
	}
	if got := m.Latency.With("ok").Count(); got != 3 {
		t.Fatalf("latency observations = %d, want 3", got)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight after requests = %d, want 0", got)
	}
}

func TestStatusClass(t *testing.T) {
	cases := map[int]string{200: "2xx", 201: "2xx", 404: "4xx", 503: "5xx", 42: "other",
		99: "other", 100: "1xx", 399: "3xx", 599: "5xx", 600: "other", -200: "other"}
	for code, want := range cases {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestNewRequestIDFormat pins the generated ID: the process prefix, a
// dash, and the counter zero-padded to at least six digits.
func TestNewRequestIDFormat(t *testing.T) {
	for _, n := range []uint64{0, 41, 999_998, 1<<64 - 2} {
		ridCounter.Store(n)
		if got, want := newRequestID(), fmt.Sprintf("%s-%06d", ridPrefix, n+1); got != want {
			t.Errorf("counter %d: %q, want %q", n+1, got, want)
		}
	}
}

func TestAccessLogLevels(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h := AccessLog(log, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "oops", http.StatusInternalServerError)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/fail", nil))
	out := buf.String()
	if !strings.Contains(out, "level=WARN") || !strings.Contains(out, "status=500") {
		t.Fatalf("5xx not logged at warn with status: %s", out)
	}
}

func TestAttachPprof(t *testing.T) {
	mux := http.NewServeMux()
	AttachPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
