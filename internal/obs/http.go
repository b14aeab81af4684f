package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// HTTPMetrics instruments an HTTP service: per-route request counts by
// status class, per-route latency histograms, and an in-flight gauge.
type HTTPMetrics struct {
	Requests *CounterVec   // labels: route, code (status class "2xx".."5xx")
	Latency  *HistogramVec // labels: route
	InFlight *Gauge
}

// NewHTTPMetrics registers the standard HTTP metric families on r
// under the given prefix (e.g. "stsmatch"). Calling it twice with the
// same registry and prefix returns handles to the same metrics.
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "code"),
		Latency: r.HistogramVec(prefix+"_http_request_seconds",
			"HTTP request latency in seconds, by route.", DefLatencyBuckets, "route"),
		InFlight: r.Gauge(prefix+"_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recordStatus returns a recorder of the status written to w: w itself
// when an enclosing middleware already records it, so stacked wrappers
// share one.
func recordStatus(w http.ResponseWriter) *statusRecorder {
	if rec, ok := w.(*statusRecorder); ok {
		return rec
	}
	return &statusRecorder{ResponseWriter: w, code: http.StatusOK}
}

// statusClasses are the code label values, indexed by code/100 - 1.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return statusClasses[code/100-1]
}

// Wrap instruments one route: requests count under the given route
// label, latency is observed on completion, and the in-flight gauge
// tracks concurrent handlers.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	return m.wrap(route, next, true)
}

// WrapScrape instruments a route in the request counter and latency
// histogram but not the in-flight gauge. It exists for the /metrics
// route itself: a scrape always observes its own handler running, so
// including it would make the gauge read >= 1 on every sample.
func (m *HTTPMetrics) WrapScrape(route string, next http.Handler) http.Handler {
	return m.wrap(route, next, false)
}

func (m *HTTPMetrics) wrap(route string, next http.Handler, inFlight bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inFlight {
			m.InFlight.Inc()
			defer m.InFlight.Dec()
		}
		start := time.Now()
		rec := recordStatus(w)
		next.ServeHTTP(rec, r)
		m.Requests.With(route, statusClass(rec.code)).Inc()
		m.Latency.With(route).Observe(time.Since(start).Seconds())
	})
}

type ctxKey int

const requestIDKey ctxKey = iota

// ridPrefix makes request IDs unique across process restarts.
var ridPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var ridCounter atomic.Uint64

// newRequestID returns "<prefix>-<counter>", the counter zero-padded to
// at least six digits.
func newRequestID() string {
	var b [len("00000000-") + 20]byte
	id := append(b[:0], ridPrefix...)
	id = append(id, '-')
	var digits [20]byte
	n := strconv.AppendUint(digits[:0], ridCounter.Add(1), 10)
	for pad := len(n); pad < 6; pad++ {
		id = append(id, '0')
	}
	return string(append(id, n...))
}

// maxRequestIDLen caps accepted client-supplied request IDs; longer
// ones are replaced, not truncated, so an ID in the logs is always
// exactly what was propagated.
const maxRequestIDLen = 128

// wellFormedRequestID accepts printable ASCII without spaces, control
// characters, or quotes — enough to be safe in logs and headers while
// still admitting client conventions like "client-123" or UUIDs.
func wellFormedRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// RequestID propagates (or assigns) an X-Request-Id header, storing
// the ID in the request context and echoing it on the response so a
// client can correlate its call with the server's logs. Incoming IDs
// are reused only when well-formed (printable, no spaces, ≤128 bytes)
// — the gateway forwards its ID to backends on scatter-gather and
// replication calls, so one request keeps one ID across services.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !wellFormedRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// RequestIDFrom returns the request ID stored by the RequestID
// middleware, or "" when none is present.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// AccessLog logs one line per request. Successful requests log at
// debug (so steady-state traffic stays quiet at the default level);
// server errors log at warn. The paths TraceHTTP skips (noisyPath:
// scrapes, probes, /v1/traces) are not logged at all — a 15-second
// scrape interval would otherwise dominate the output — but still count
// in the HTTP request metrics, which wrap routes below this middleware.
func AccessLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if noisyPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := recordStatus(w)
		next.ServeHTTP(rec, r)
		level := slog.LevelDebug
		if rec.code >= 500 {
			level = slog.LevelWarn
		}
		if !log.Enabled(r.Context(), level) {
			return
		}
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.Duration("dur", time.Since(start)),
			slog.String("requestId", RequestIDFrom(r.Context())),
		}
		if sp := SpanFromContext(r.Context()); sp != nil {
			attrs = append(attrs, slog.String("traceId", sp.TraceID()))
		}
		log.Log(r.Context(), level, "request", attrs...)
	})
}

// AttachPprof mounts the net/http/pprof handlers on mux under
// /debug/pprof/, for daemons that opt in via a -pprof flag. The
// handlers are deliberately not registered by default: debug
// endpoints should not be reachable unless asked for.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
