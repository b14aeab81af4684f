// Distributed tracing: a stdlib-only Trace/Span API with W3C
// traceparent-style header propagation, a bounded in-memory trace
// collector with a slow-trace ring (the worst requests are always
// retained), and helpers for serializing span trees into per-query
// "explain" profiles.
//
// The design is deliberately small:
//
//   - A Trace is one request's tree of Spans, identified by a 128-bit
//     trace ID. Spans carry a 64-bit span ID, their parent's span ID,
//     monotonic timings, and key-value annotations.
//   - Context plumbing mirrors net/http: TraceHTTP starts (or, from an
//     incoming Traceparent header, continues) a trace per request and
//     stores the root span in the request context; StartSpan derives
//     children. When the context carries no span, StartSpan returns a
//     nil *Span whose methods all no-op, so instrumented code pays
//     nothing on untraced paths.
//   - Sampling is decided once, at the head: TraceHTTP records a
//     request whose caller sampled it (the traceparent flag), that asks
//     for ?debug=profile, or that is one in SampleEvery of those
//     arriving without a trace context. Every other request gets a root
//     span carrying trace context only — its IDs still propagate and
//     are echoed — under which StartSpan returns nil as on an untraced
//     context.
//   - When a sampled root span finishes, the whole trace is offered to
//     the service's Collector: a fixed-capacity ring of recent traces
//     plus a second ring that only admits traces slower than a
//     threshold, so a burst of fast requests can never evict the
//     evidence of a slow one. An unsampled request that turns out slow
//     reaches the slow ring as its root span alone. GET /v1/traces
//     serves both rings as JSON.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext is the propagated position in a trace: enough for a
// downstream service to attach its spans to the caller's tree.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars, not all-zero
	SpanID  string // 16 lowercase hex chars, not all-zero
	// Sampled is the W3C sampled flag: the trace is being recorded, so
	// a service continuing it records its part too.
	Sampled bool
}

// Valid reports whether the context identifies a real trace position.
func (c SpanContext) Valid() bool {
	return isHexID(c.TraceID, 32) && isHexID(c.SpanID, 16)
}

// isHexID checks an ID is exactly n lowercase hex chars and not
// all-zero (the W3C spec reserves the all-zero IDs as invalid).
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// newHexID returns words random 64-bit words as lowercase hex, never
// all-zero. IDs only need to be unique, not unpredictable, so they come
// from the runtime's per-thread generator rather than crypto/rand: no
// syscall, and the string is the one allocation.
func newHexID(words int) string {
	var b [16]byte
	var h [32]byte
	for {
		zero := true
		for i := 0; i < words; i++ {
			w := rand.Uint64()
			binary.BigEndian.PutUint64(b[8*i:], w)
			zero = zero && w == 0
		}
		if !zero {
			hex.Encode(h[:], b[:8*words])
			return string(h[:16*words])
		}
	}
}

// NewTraceID returns a fresh 128-bit trace ID.
func NewTraceID() string { return newHexID(2) }

// NewSpanID returns a fresh 64-bit span ID.
func NewSpanID() string { return newHexID(1) }

// TraceparentHeader is the propagation header, in the W3C trace
// context format: "00-<trace-id>-<parent-span-id>-<flags>".
const TraceparentHeader = "Traceparent"

// traceparentLen is the exact length of a version-00 traceparent
// value; anything longer is oversized and rejected.
const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// ParseTraceparent parses a traceparent header value, the sampled flag
// (bit 0 of the flags byte) included. Malformed, oversized, or all-zero
// inputs return ok=false — the caller then starts a fresh trace instead
// of propagating garbage.
func ParseTraceparent(h string) (sc SpanContext, ok bool) {
	if len(h) != traceparentLen {
		return SpanContext{}, false
	}
	if h[0:2] != "00" || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	sc = SpanContext{TraceID: h[3:35], SpanID: h[36:52]}
	if !sc.Valid() || !isHexByte(h[53]) || !isHexByte(h[54]) {
		return SpanContext{}, false
	}
	sc.Sampled = strings.IndexByte("13579bdf", h[54]) >= 0 // bit 0 set: the low hex digit is odd
	return sc, true
}

func isHexByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
}

// FormatTraceparent renders the traceparent header value for an
// outgoing request, with the sampled flag as c carries it.
func FormatTraceparent(c SpanContext) string {
	flags := "-00"
	if c.Sampled {
		flags = "-01"
	}
	return "00-" + c.TraceID + "-" + c.SpanID + flags
}

// SpanData is one finished (or snapshotted in-progress) span in wire
// form: the unit of /v1/traces payloads and ?debug=profile responses.
type SpanData struct {
	TraceID    string         `json:"traceId"`
	SpanID     string         `json:"spanId"`
	ParentID   string         `json:"parentId,omitempty"`
	Name       string         `json:"name"`
	Service    string         `json:"service"`
	Start      int64          `json:"startUnixNano"`
	DurationNS int64          `json:"durationNs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	InProgress bool           `json:"inProgress,omitempty"`
}

// Span is one timed operation inside a trace. A nil *Span is a valid
// no-op span: every method tolerates a nil receiver, so instrumented
// code can call StartSpan/Annotate/Finish unconditionally.
type Span struct {
	tr       *trace
	name     string
	id       string
	parentID string
	start    time.Time // carries the monotonic clock reading

	mu    sync.Mutex
	attrs map[string]any
	dur   time.Duration
	done  bool
}

// trace accumulates one request's spans until the root finishes. An
// unsampled trace holds its root alone: it exists to carry the trace
// context, and StartSpan derives nothing from it.
type trace struct {
	id      string
	service string
	col     *Collector
	root    Span // allocated with the trace
	sampled bool

	mu    sync.Mutex
	spans []*Span
	extra []SpanData // merged spans from downstream services
}

// StartTrace begins a new recording trace rooted at a span with the
// given name. A valid parent (from an incoming traceparent header)
// continues the caller's trace; otherwise a fresh trace ID is minted.
// When the root span finishes, the assembled trace is offered to col
// (which may be nil to trace without collecting, e.g. in benchmarks).
func StartTrace(name, service string, parent SpanContext, col *Collector) *Span {
	return startTrace(name, service, parent, col, true)
}

// startTrace is StartTrace with the sampling decision made by the
// caller.
func startTrace(name, service string, parent SpanContext, col *Collector, sampled bool) *Span {
	tr := &trace{service: service, col: col, sampled: sampled}
	sp := &tr.root
	sp.tr, sp.name, sp.id, sp.start = tr, name, NewSpanID(), time.Now()
	if parent.Valid() {
		tr.id = parent.TraceID
		sp.parentID = parent.SpanID
	} else {
		tr.id = NewTraceID()
	}
	if sampled {
		tr.spans = append(tr.spans, sp)
	}
	return sp
}

type spanCtxKey int

const spanKey spanCtxKey = iota

// ContextWithSpan stores a span in a context for StartSpan to derive
// children from.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFromContext returns the current span, or nil when the context
// is untraced.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan starts a child of the context's current span and returns
// a derived context carrying it. On an untraced context, and under the
// root of an unsampled request, it returns (ctx, nil); the nil span's
// methods no-op, so callers need no guard beyond skipping genuinely
// expensive measurement work (see Span.Recording).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if !parent.Recording() {
		return ctx, nil
	}
	sp := &Span{tr: parent.tr, name: name, id: NewSpanID(), parentID: parent.id, start: time.Now()}
	parent.tr.mu.Lock()
	parent.tr.spans = append(parent.tr.spans, sp)
	parent.tr.mu.Unlock()
	return ContextWithSpan(ctx, sp), sp
}

// AddSpan records an already-measured child span under the context's
// current span: the shape used for synthetic stage spans whose
// durations were accumulated out-of-band (e.g. the matcher funnel
// stages, aggregated across workers).
func AddSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs map[string]any) {
	_, sp := StartSpan(ctx, name)
	if sp == nil {
		return
	}
	sp.start = start
	sp.mu.Lock()
	sp.attrs = attrs
	sp.mu.Unlock()
	sp.FinishWithDuration(d)
}

// AddExternalSpans merges spans returned by a downstream service into
// the context's trace (a gateway merging backend query profiles), so
// the collector retains the full cross-service tree.
func AddExternalSpans(ctx context.Context, spans []SpanData) {
	sp := SpanFromContext(ctx)
	if !sp.Recording() || len(spans) == 0 {
		return
	}
	sp.tr.mu.Lock()
	sp.tr.extra = append(sp.tr.extra, spans...)
	sp.tr.mu.Unlock()
}

// Recording reports whether spans started under s are recorded: false
// for a nil span and for the root of an unsampled request. Code that
// builds annotations before it can hand them to a span checks it first.
func (s *Span) Recording() bool {
	return s != nil && s.tr.sampled
}

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tr.id, SpanID: s.id, Sampled: s.tr.sampled}
}

// TraceID returns the span's trace ID ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Annotate attaches a key-value annotation to the span. Safe for
// concurrent use and on a nil span.
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Finish stamps the span's duration from the monotonic clock. The
// first Finish wins; concurrent and repeated calls are safe. Finishing
// the root span offers the assembled trace to the collector.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishWithDuration(time.Since(s.start))
}

// FinishWithDuration finishes the span with an explicit duration
// (synthetic stage spans measured out-of-band). Finishing a sampled
// root offers its trace to the collector; an unsampled root is kept
// only if slow, as a root-only record in the slow ring.
func (s *Span) FinishWithDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.dur = d
	s.mu.Unlock()
	col := s.tr.col
	if s != &s.tr.root || col == nil {
		return
	}
	switch {
	case s.tr.sampled:
		col.Offer(s.tr.data())
	case col.KeepsSlow(d):
		col.offerRootOnly(s.data())
	}
}

// data snapshots one span (in-progress spans report elapsed-so-far).
func (s *Span) data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := SpanData{
		TraceID:  s.tr.id,
		SpanID:   s.id,
		ParentID: s.parentID,
		Name:     s.name,
		Service:  s.tr.service,
		Start:    s.start.UnixNano(),
	}
	if s.done {
		d.DurationNS = s.dur.Nanoseconds()
	} else {
		d.DurationNS = time.Since(s.start).Nanoseconds()
		d.InProgress = true
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	return d
}

// data snapshots a recorded trace, including merged external spans.
func (t *trace) data() TraceData {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	extra := append([]SpanData(nil), t.extra...)
	t.mu.Unlock()
	td := TraceData{TraceID: t.id, Service: t.service, Spans: make([]SpanData, 0, len(spans)+len(extra))}
	for _, sp := range spans {
		td.Spans = append(td.Spans, sp.data())
	}
	td.Spans = append(td.Spans, extra...)
	root := td.Spans[0] // a recorded trace lists its root first
	td.Root, td.Start, td.DurationNS = root.Name, root.Start, root.DurationNS
	return td
}

// SnapshotTrace returns the context's trace ID and every span
// recorded so far, including still-open spans (marked InProgress).
// An untraced or unsampled context returns ("", nil). This is the
// building block of the ?debug=profile inline explain: a handler can
// serialize its own trace before the root span has finished.
func SnapshotTrace(ctx context.Context) (traceID string, spans []SpanData) {
	sp := SpanFromContext(ctx)
	if !sp.Recording() {
		return "", nil
	}
	td := sp.tr.data()
	return td.TraceID, td.Spans
}

// TraceData is one assembled trace as stored by the Collector.
type TraceData struct {
	TraceID    string     `json:"traceId"`
	Root       string     `json:"root"`
	Service    string     `json:"service"`
	Start      int64      `json:"startUnixNano"`
	DurationNS int64      `json:"durationNs"`
	Spans      []SpanData `json:"spans"`
}

// Collector is a bounded in-memory trace store: a FIFO ring of the
// most recent sampled traces plus a slow-trace ring that only admits
// traces whose root duration meets the threshold — sampled or not, so
// the worst requests survive any amount of fast traffic. offered counts
// the traces kept.
type Collector struct {
	capacity  int
	threshold time.Duration // fixed at construction: read without mu

	mu      sync.Mutex
	recent  ring
	slow    ring
	offered uint64
}

// ring is a fixed-capacity FIFO of traces.
type ring struct {
	buf  []TraceData
	head int // index of the oldest element
	n    int
}

func (r *ring) push(td TraceData) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = td
		r.n++
		return
	}
	// Full: overwrite the oldest (eviction is strictly FIFO).
	r.buf[r.head] = td
	r.head = (r.head + 1) % len(r.buf)
}

// list returns newest-first.
func (r *ring) list() []TraceData {
	out := make([]TraceData, 0, r.n)
	for i := r.n - 1; i >= 0; i-- {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// DefaultTraceCapacity bounds each collector ring when the caller
// passes 0.
const DefaultTraceCapacity = 256

// DefaultSlowThreshold is the slow-trace capture threshold when the
// caller passes 0.
const DefaultSlowThreshold = 250 * time.Millisecond

// NewCollector builds a collector retaining up to capacity recent
// traces and up to capacity slow traces (root duration >= threshold).
// Zero values select the defaults.
func NewCollector(capacity int, threshold time.Duration) *Collector {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	return &Collector{
		capacity:  capacity,
		threshold: threshold,
		recent:    ring{buf: make([]TraceData, capacity)},
		slow:      ring{buf: make([]TraceData, capacity)},
	}
}

// SlowThreshold returns the slow-trace capture threshold.
func (c *Collector) SlowThreshold() time.Duration { return c.threshold }

// Offer stores a finished trace, evicting the oldest recent trace at
// capacity; traces at or above the slow threshold are additionally
// pinned in the slow ring. Nil collectors discard silently.
func (c *Collector) Offer(td TraceData) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offered++
	c.recent.push(td)
	if time.Duration(td.DurationNS) >= c.threshold {
		c.slow.push(td)
	}
}

// KeepsSlow reports whether the slow ring admits a record of duration
// d (false on a nil collector). Work that only ever reaches the slow
// ring asks before it builds its record.
func (c *Collector) KeepsSlow(d time.Duration) bool {
	return c != nil && d >= c.threshold
}

// OfferSlow stores a trace only if it meets the slow threshold,
// bypassing the recent ring. Background work (e.g. WAL group-commit
// flushes) uses this so steady-state ticks don't drown request traces.
func (c *Collector) OfferSlow(td TraceData) {
	if !c.KeepsSlow(time.Duration(td.DurationNS)) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offered++
	c.slow.push(td)
}

// offerRootOnly stores one span as a whole trace in the slow ring: a
// standalone record, or the root of an unsampled request that turned
// out slow.
func (c *Collector) offerRootOnly(sd SpanData) {
	c.OfferSlow(TraceData{
		TraceID:    sd.TraceID,
		Root:       sd.Name,
		Service:    sd.Service,
		Start:      sd.Start,
		DurationNS: sd.DurationNS,
		Spans:      []SpanData{sd},
	})
}

// Recent returns the recent-trace ring, newest first.
func (c *Collector) Recent() []TraceData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recent.list()
}

// Slow returns the slow-trace ring, newest first.
func (c *Collector) Slow() []TraceData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slow.list()
}

// tracesPayload is the GET /v1/traces response schema.
type tracesPayload struct {
	Capacity        int         `json:"capacity"`
	SlowThresholdMS float64     `json:"slowThresholdMs"`
	Offered         uint64      `json:"offered"`
	Recent          []TraceData `json:"recent"`
	Slow            []TraceData `json:"slow"`
}

// Handler serves the collector's contents as JSON — mount it at
// GET /v1/traces.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		p := tracesPayload{
			Capacity:        c.capacity,
			SlowThresholdMS: float64(c.threshold) / float64(time.Millisecond),
			Offered:         c.offered,
			Recent:          c.recent.list(),
			Slow:            c.slow.list(),
		}
		c.mu.Unlock()
		if id := r.URL.Query().Get("trace"); id != "" {
			p.Recent = filterTraces(p.Recent, id)
			p.Slow = filterTraces(p.Slow, id)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p) //nolint:errcheck
	})
}

func filterTraces(in []TraceData, id string) []TraceData {
	out := in[:0:0]
	for _, td := range in {
		if td.TraceID == id {
			out = append(out, td)
		}
	}
	return out
}

// SampleEvery is the head-sampling rate: TraceHTTP records one in
// SampleEvery of the requests that arrive without a trace context.
const SampleEvery = 64

// TraceHTTP starts (or, from an incoming Traceparent header,
// continues) a trace for each request, stores the root span in the
// request context, and echoes the trace ID as X-Trace-Id so clients
// can look their request up in /v1/traces. Finished traces go to col.
// Scrape and probe endpoints (/metrics, /v1/healthz) and /v1/traces
// itself are not traced: a 2-second health prober would otherwise
// dominate the recent ring.
//
// The sampling decision is made here, once per request: a request is
// recorded if its caller sampled it, if it asks for ?debug=profile, or
// if it is the SampleEvery-th request this handler has seen arrive
// without a trace context. A caller's unsampled flag is honoured, so a
// downstream service records exactly the parts of the traces its
// caller keeps. An unsampled request still carries its trace context
// (X-Trace-Id, the access log's traceId, outgoing Traceparent with the
// flag clear); it is kept only if slow, as a root-only record with its
// status and requestId.
func TraceHTTP(service string, col *Collector, next http.Handler) http.Handler {
	var arrivals atomic.Uint64 // requests without a trace context
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if noisyPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		parent, continued := ParseTraceparent(r.Header.Get(TraceparentHeader))
		sampled := parent.Sampled
		if !continued {
			sampled = arrivals.Add(1)%SampleEvery == 0
		}
		sampled = sampled || wantsProfile(r)
		sp := startTrace(r.Method+" "+r.URL.Path, service, parent, col, sampled)
		rid := RequestIDFrom(r.Context())
		if sampled && rid != "" {
			sp.Annotate("requestId", rid)
		}
		w.Header().Set("X-Trace-Id", sp.TraceID())
		rec := recordStatus(w)
		next.ServeHTTP(rec, r.WithContext(ContextWithSpan(r.Context(), sp)))
		d := time.Since(sp.start)
		if !sampled {
			if !col.KeepsSlow(d) {
				return // nothing of this request is kept
			}
			if rid != "" {
				sp.Annotate("requestId", rid)
			}
		}
		sp.Annotate("status", rec.code)
		sp.FinishWithDuration(d)
	})
}

// wantsProfile reports whether a request asks for its span tree inline
// (?debug=profile), which only a recorded trace has.
func wantsProfile(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "debug=profile") && r.URL.Query().Get("debug") == "profile"
}

// noisyPath reports whether a path is high-frequency machine traffic
// (scrapes and probes) excluded from tracing and access logs.
func noisyPath(p string) bool {
	return p == "/metrics" || p == "/v1/healthz" || p == "/v1/traces"
}

// InjectHeaders stamps the outgoing propagation headers — Traceparent
// from the context's span, its sampled flag the request's sampling
// decision, and X-Request-Id from the request-ID middleware — onto a
// downstream request, so one logical request can be joined across
// services in both traces and logs.
func InjectHeaders(ctx context.Context, h http.Header) {
	if sp := SpanFromContext(ctx); sp != nil {
		h.Set(TraceparentHeader, FormatTraceparent(sp.Context()))
	}
	if rid := RequestIDFrom(ctx); rid != "" {
		h.Set("X-Request-Id", rid)
	}
}

// Profile is the inline "explain" payload of ?debug=profile: the
// query's span tree with stage durations and funnel counts.
type Profile struct {
	TraceID string    `json:"traceId"`
	Root    *SpanNode `json:"root"`
}

// SpanNode is one node of a nested span tree.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildTree nests a flat span list by parent ID. Spans whose parent
// is absent are roots; with multiple roots (a partial snapshot) a
// synthetic root binds them. Children sort by start time, then name,
// so the tree is deterministic. Returns nil for an empty list.
func BuildTree(spans []SpanData) *SpanNode {
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[string]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	for _, sd := range spans {
		n := &SpanNode{SpanData: sd}
		nodes[sd.SpanID] = n
		order = append(order, n)
	}
	var roots []*SpanNode
	for _, n := range order {
		if p, ok := nodes[n.ParentID]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes := func(ns []*SpanNode) {
		sort.Slice(ns, func(a, b int) bool {
			if ns[a].Start != ns[b].Start {
				return ns[a].Start < ns[b].Start
			}
			return ns[a].Name < ns[b].Name
		})
	}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		sortNodes(n.Children)
		for _, c := range n.Children {
			walk(c)
		}
	}
	sortNodes(roots)
	for _, r := range roots {
		walk(r)
	}
	if len(roots) == 1 {
		return roots[0]
	}
	syn := &SpanNode{SpanData: SpanData{TraceID: roots[0].TraceID, Name: "(detached)"}, Children: roots}
	return syn
}

// Flatten walks a span tree back into a flat list (pre-order).
func (n *SpanNode) Flatten() []SpanData {
	if n == nil {
		return nil
	}
	out := []SpanData{n.SpanData}
	for _, c := range n.Children {
		out = append(out, c.Flatten()...)
	}
	return out
}

// RecordStandalone offers a single-span trace for background work that
// has no request context (e.g. the WAL group-commit flusher) to the
// collector's slow ring only. A record under the threshold costs one
// comparison: nothing is built for it. Callers with attributes to build
// check col.KeepsSlow first.
func RecordStandalone(col *Collector, service, name string, start time.Time, d time.Duration, attrs map[string]any) {
	if !col.KeepsSlow(d) {
		return
	}
	col.offerRootOnly(SpanData{
		TraceID:    NewTraceID(),
		SpanID:     NewSpanID(),
		Name:       name,
		Service:    service,
		Start:      start.UnixNano(),
		DurationNS: d.Nanoseconds(),
		Attrs:      attrs,
	})
}
