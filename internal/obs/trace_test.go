package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: sampled}
		if !sc.Valid() {
			t.Fatalf("fresh IDs invalid: %+v", sc)
		}
		h := FormatTraceparent(sc)
		got, ok := ParseTraceparent(h)
		if !ok || got != sc {
			t.Fatalf("round trip: %q -> (%+v, %v), want %+v", h, got, ok, sc)
		}
	}
	// The sampled bit is bit 0 of the flags byte; the other bits are
	// accepted and not propagated.
	const prefix = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-"
	for flags, want := range map[string]bool{"00": false, "01": true, "03": true, "02": false, "ff": true, "fe": false, "0b": true} {
		sc, ok := ParseTraceparent(prefix + flags)
		if !ok || sc.Sampled != want {
			t.Errorf("flags %s: (%+v, %v), want sampled=%v", flags, sc, ok, want)
		}
		if out := FormatTraceparent(sc); out[:len(prefix)] != prefix || (out[len(prefix):] == "01") != want {
			t.Errorf("flags %s re-formatted as %q", flags, out)
		}
	}
}

// malformedTraceparents are values ParseTraceparent must refuse; they
// also seed FuzzTraceparent.
var malformedTraceparents = []string{
	"",
	"00",
	"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-extrastate", // oversized
	"ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01",            // unknown version
	"00-00000000000000000000000000000000-0123456789abcdef-01",            // all-zero trace ID
	"00-0123456789abcdef0123456789abcdef-0000000000000000-01",            // all-zero span ID
	"00-0123456789ABCDEF0123456789ABCDEF-0123456789abcdef-01",            // uppercase hex
	"00_0123456789abcdef0123456789abcdef-0123456789abcdef-01",            // wrong separator
	"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0g",            // non-hex flags
	"00-0123456789abcdef0123456789abcde-0123456789abcdeff-01",            // shifted field widths
	strings.Repeat("0", 2*traceparentLen),                                // oversized garbage
	"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01\n",          // trailing byte
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("reference value rejected: %q", valid)
	}
	for _, h := range malformedTraceparents {
		if sc, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v", h, sc)
		}
	}
}

// wellFormedTraceparent is the reference grammar ParseTraceparent
// implements: version 00, a non-zero 128-bit trace ID, a non-zero
// 64-bit span ID and a flags byte, all lowercase hex.
var wellFormedTraceparent = regexp.MustCompile(`^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$`)

// FuzzTraceparent: the header comes from outside the process. No input
// panics, the accepted values are exactly the reference grammar's, and
// every accepted value round-trips through FormatTraceparent with its
// sampled bit.
func FuzzTraceparent(f *testing.F) {
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	for _, flags := range []string{"00", "01", "03"} {
		f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-" + flags)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		m := wellFormedTraceparent.FindStringSubmatch(h)
		want := m != nil && strings.Trim(m[1], "0") != "" && strings.Trim(m[2], "0") != ""
		if ok != want {
			t.Fatalf("ParseTraceparent(%q) ok=%v, reference grammar says %v", h, ok, want)
		}
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("refused %q but returned %+v", h, sc)
			}
			return
		}
		out := FormatTraceparent(sc)
		if out[:53] != h[:53] {
			t.Fatalf("%q re-formatted as %q", h, out)
		}
		back, ok := ParseTraceparent(out)
		if !ok || back != sc {
			t.Fatalf("round trip %q -> %+v -> %q -> (%+v, %v)", h, sc, out, back, ok)
		}
	})
}

// TestTraceHTTPFreshTraceOnMalformedHeader is the propagation safety
// contract: garbage in the Traceparent header must start a fresh trace,
// never join (or crash on) the claimed one.
func TestTraceHTTPFreshTraceOnMalformedHeader(t *testing.T) {
	col := NewCollector(8, time.Hour)
	var rootParent string
	h := TraceHTTP("svc", col, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := SpanFromContext(r.Context())
		if sp == nil {
			t.Fatal("no span in traced request context")
		}
		rootParent = sp.parentID
	}))

	for _, hdr := range []string{"not-a-traceparent", strings.Repeat("a", 4096)} {
		req := httptest.NewRequest("GET", "/v1/match", nil)
		req.Header.Set(TraceparentHeader, hdr)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		id := rec.Header().Get("X-Trace-Id")
		if !isHexID(id, 32) {
			t.Fatalf("fresh trace ID malformed: %q", id)
		}
		if rootParent != "" {
			t.Fatalf("root span has parent %q from a malformed header", rootParent)
		}
	}
}

func TestTraceHTTPContinuesValidTrace(t *testing.T) {
	col := NewCollector(8, time.Hour)
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	var gotTrace, gotParent string
	h := TraceHTTP("svc", col, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := SpanFromContext(r.Context())
		gotTrace, gotParent = sp.TraceID(), sp.parentID
	}))
	req := httptest.NewRequest("POST", "/v1/match", nil)
	req.Header.Set(TraceparentHeader, FormatTraceparent(parent))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if gotTrace != parent.TraceID || gotParent != parent.SpanID {
		t.Fatalf("trace not continued: trace=%q parent=%q, want %+v", gotTrace, gotParent, parent)
	}
	if rec.Header().Get("X-Trace-Id") != parent.TraceID {
		t.Fatalf("X-Trace-Id %q != propagated trace %q", rec.Header().Get("X-Trace-Id"), parent.TraceID)
	}
	// The finished trace landed in the collector under the caller's ID.
	recent := col.Recent()
	if len(recent) != 1 || recent[0].TraceID != parent.TraceID {
		t.Fatalf("collector holds %+v, want 1 trace %s", recent, parent.TraceID)
	}
}

// TestTraceHTTPSkipsNoisyPaths: the paths the tracer skips are the
// paths the access log skips — one list, noisyPath.
func TestTraceHTTPSkipsNoisyPaths(t *testing.T) {
	col := NewCollector(8, time.Hour)
	h := TraceHTTP("svc", col, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sp := SpanFromContext(r.Context()); sp != nil {
			t.Errorf("%s is traced", r.URL.Path)
		}
	}))
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	logged := AccessLog(log, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	for _, p := range []string{"/metrics", "/v1/healthz", "/v1/traces"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
		logged.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
	}
	if got := col.Recent(); len(got) != 0 {
		t.Fatalf("noisy paths produced %d traces", len(got))
	}
	if out := buf.String(); out != "" {
		t.Fatalf("noisy paths access-logged: %s", out)
	}
}

// sampledProbe is a handler reporting what a request's context
// carries: whether a child span records, and the Traceparent it would
// send downstream.
type sampledProbe struct {
	recorded   bool
	downstream string
}

func (p *sampledProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, child := StartSpan(r.Context(), "child")
	child.Finish()
	p.recorded = child != nil
	h := http.Header{}
	InjectHeaders(r.Context(), h)
	p.downstream = h.Get(TraceparentHeader)
}

// TestTraceHTTPHeadSampling: of the requests arriving without a trace
// context, every SampleEvery-th is recorded in full and the rest carry
// trace context only — an X-Trace-Id, a Traceparent with the sampled
// flag clear — and leave nothing in the collector.
func TestTraceHTTPHeadSampling(t *testing.T) {
	col := NewCollector(4*SampleEvery, time.Hour)
	var probe sampledProbe
	h := TraceHTTP("svc", col, &probe)
	for i := 1; i <= 2*SampleEvery; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/match", nil))
		id := rec.Header().Get("X-Trace-Id")
		if !isHexID(id, 32) {
			t.Fatalf("request %d: X-Trace-Id %q", i, id)
		}
		down, ok := ParseTraceparent(probe.downstream)
		if !ok || down.TraceID != id {
			t.Fatalf("request %d: downstream traceparent %q does not carry trace %s", i, probe.downstream, id)
		}
		want := i%SampleEvery == 0
		if probe.recorded != want || down.Sampled != want {
			t.Fatalf("request %d: child span recorded=%v, downstream sampled=%v; want %v", i, probe.recorded, down.Sampled, want)
		}
		if got := len(col.Recent()); got != i/SampleEvery {
			t.Fatalf("after request %d the recent ring holds %d traces, want %d", i, got, i/SampleEvery)
		}
	}
	for _, td := range col.Recent() {
		if len(td.Spans) != 2 {
			t.Fatalf("sampled trace has %d spans, want root + child: %+v", len(td.Spans), td.Spans)
		}
	}
}

// TestTraceHTTPHonoursCallerFlag: a caller's sampled flag decides, in
// both directions, whatever the local count — and ?debug=profile is
// always recorded.
func TestTraceHTTPHonoursCallerFlag(t *testing.T) {
	for _, tc := range []struct {
		flags, query string
		want         bool
	}{
		{"-00", "", false},
		{"-01", "", true},
		{"-03", "", true},
		{"", "?debug=profile", true},
		{"-00", "?debug=profile", true},
		{"", "?debug=profiles", false},
	} {
		col := NewCollector(4*SampleEvery, time.Hour)
		var probe sampledProbe
		h := TraceHTTP("svc", col, &probe)
		parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
		for i := 0; i < 2*SampleEvery; i++ {
			req := httptest.NewRequest("POST", "/v1/match"+tc.query, nil)
			if tc.flags != "" {
				req.Header.Set(TraceparentHeader, "00-"+parent.TraceID+"-"+parent.SpanID+tc.flags)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
			if tc.flags == "" && !tc.want {
				continue // the local count samples these
			}
			if probe.recorded != tc.want {
				t.Fatalf("flags %q query %q, request %d: recorded=%v, want %v", tc.flags, tc.query, i, probe.recorded, tc.want)
			}
			if down, _ := ParseTraceparent(probe.downstream); down.Sampled != tc.want {
				t.Fatalf("flags %q query %q: downstream %q", tc.flags, tc.query, probe.downstream)
			}
		}
		kept := len(col.Recent())
		switch {
		case tc.flags == "" && !tc.want:
			if kept != 2 {
				t.Errorf("query %q: %d of %d requests recorded, want 2", tc.query, kept, 2*SampleEvery)
			}
		case tc.want && kept != 2*SampleEvery, !tc.want && kept != 0:
			t.Errorf("flags %q query %q: %d of %d requests recorded", tc.flags, tc.query, kept, 2*SampleEvery)
		}
	}
}

// TestTraceHTTPSlowUnsampledKept: an unsampled request that turns out
// slow reaches the slow ring as its root span alone, with its status
// and requestId, under the trace ID the client was given; the recent
// ring stays for sampled traces.
func TestTraceHTTPSlowUnsampledKept(t *testing.T) {
	col := NewCollector(4, 5*time.Millisecond)
	slow := true
	h := RequestID(TraceHTTP("svc", col, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow {
			time.Sleep(10 * time.Millisecond)
		}
		w.WriteHeader(http.StatusTeapot)
	})))
	unsampled := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00"
	req := httptest.NewRequest("GET", "/v1/sessions/S1/predict", nil)
	req.Header.Set(TraceparentHeader, unsampled)
	req.Header.Set("X-Request-Id", "client-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := col.Recent(); len(got) != 0 {
		t.Fatalf("unsampled request in the recent ring: %+v", got)
	}
	sl := col.Slow()
	if len(sl) != 1 || sl[0].TraceID != rec.Header().Get("X-Trace-Id") || sl[0].Root != "GET /v1/sessions/S1/predict" || len(sl[0].Spans) != 1 {
		t.Fatalf("slow ring %+v, want the root-only record of trace %s", sl, rec.Header().Get("X-Trace-Id"))
	}
	root := sl[0].Spans[0]
	if root.Attrs["requestId"] != "client-7" || root.Attrs["status"] != http.StatusTeapot || root.ParentID != "0123456789abcdef" {
		t.Fatalf("root-only record %+v", root)
	}
	// A fast unsampled request leaves nothing anywhere.
	slow = false
	h.ServeHTTP(httptest.NewRecorder(), req)
	if len(col.Recent()) != 0 || len(col.Slow()) != 1 {
		t.Fatalf("fast unsampled request kept: recent %d, slow %d", len(col.Recent()), len(col.Slow()))
	}
}

// TestUnsampledChainAllocs bounds what an unsampled request costs the
// wrappers every served request passes through.
func TestUnsampledChainAllocs(t *testing.T) {
	col := NewCollector(4, time.Hour)
	log := slog.New(slog.NewTextHandler(io.Discard, nil)) // Info: the access log's Debug line is dropped
	h := RequestID(TraceHTTP("svc", col, AccessLog(log, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))))
	req := httptest.NewRequest("POST", "/v1/match", nil)
	req.Header.Set(TraceparentHeader, "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00")
	w := &discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	// RequestID: the ID, its header value, the boxed context value, the
	// context and the request copy (5). TraceHTTP: the root's name, the
	// trace holding the root span, the span ID, the X-Trace-Id header
	// value, the status recorder AccessLog shares, the context and the
	// request copy (7). Recording the request in full was 37.
	if allocs > 12 {
		t.Errorf("an unsampled request allocates %.0f times in RequestID(TraceHTTP(AccessLog)), want <= 12", allocs)
	}
	if len(col.Recent())+len(col.Slow()) != 0 {
		t.Fatal("unsampled fast requests were kept")
	}
}

// discardWriter is a ResponseWriter that keeps nothing but headers.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

func TestCollectorFIFOEviction(t *testing.T) {
	col := NewCollector(3, time.Hour)
	for i := 1; i <= 5; i++ {
		col.Offer(TraceData{TraceID: fmt.Sprintf("t%d", i), Root: "r"})
	}
	got := col.Recent()
	want := []string{"t5", "t4", "t3"} // newest first; t1, t2 evicted in order
	if len(got) != len(want) {
		t.Fatalf("recent holds %d traces, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].TraceID != id {
			t.Fatalf("recent[%d] = %s, want %s (full: %+v)", i, got[i].TraceID, id, got)
		}
	}
}

func TestCollectorSlowRing(t *testing.T) {
	col := NewCollector(4, 100*time.Millisecond)
	fast := TraceData{TraceID: "fast", DurationNS: int64(time.Millisecond)}
	slow := TraceData{TraceID: "slow", DurationNS: int64(time.Second)}
	col.Offer(fast)
	col.Offer(slow)
	if got := col.Recent(); len(got) != 2 {
		t.Fatalf("recent holds %d, want 2", len(got))
	}
	sl := col.Slow()
	if len(sl) != 1 || sl[0].TraceID != "slow" {
		t.Fatalf("slow ring %+v, want exactly the slow trace", sl)
	}
	// A burst of fast traffic must not evict the pinned slow trace.
	for i := 0; i < 10; i++ {
		col.Offer(fast)
	}
	if sl = col.Slow(); len(sl) != 1 || sl[0].TraceID != "slow" {
		t.Fatalf("slow trace evicted by fast burst: %+v", sl)
	}
	// OfferSlow admits only above-threshold work and skips the recent ring.
	col2 := NewCollector(4, 100*time.Millisecond)
	col2.OfferSlow(fast)
	col2.OfferSlow(slow)
	if got := col2.Recent(); len(got) != 0 {
		t.Fatalf("OfferSlow leaked into recent: %+v", got)
	}
	if sl = col2.Slow(); len(sl) != 1 || sl[0].TraceID != "slow" {
		t.Fatalf("OfferSlow slow ring %+v", sl)
	}
}

// TestConcurrentSpanFinish exercises span start/annotate/finish from
// many goroutines plus repeated root finishes; run under -race it
// verifies the span lifecycle is data-race free and first-finish-wins.
func TestConcurrentSpanFinish(t *testing.T) {
	col := NewCollector(4, time.Hour)
	root := StartTrace("root", "svc", SpanContext{}, col)
	ctx := ContextWithSpan(context.Background(), root)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cctx, sp := StartSpan(ctx, fmt.Sprintf("w%d", i))
				sp.Annotate("iter", j)
				_, inner := StartSpan(cctx, "inner")
				inner.Finish()
				sp.Finish()
				sp.Finish() // repeated finish must be a no-op
			}
		}(i)
	}
	// Snapshot concurrently with span churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			SnapshotTrace(ctx)
		}
	}()
	wg.Wait()
	root.Finish()
	root.Finish()

	recent := col.Recent()
	if len(recent) != 1 {
		t.Fatalf("root finished twice produced %d traces, want 1", len(recent))
	}
	if got := len(recent[0].Spans); got != 1+8*50*2 {
		t.Fatalf("trace holds %d spans, want %d", got, 1+8*50*2)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.Annotate("k", "v")
	sp.Finish()
	sp.FinishWithDuration(time.Second)
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil span leaks identity")
	}
	ctx, child := StartSpan(context.Background(), "orphan")
	if child != nil {
		t.Fatal("StartSpan on untraced context returned a live span")
	}
	AddSpan(ctx, "stage", time.Now(), time.Millisecond, nil)
	AddExternalSpans(ctx, []SpanData{{SpanID: "x"}})
	if id, spans := SnapshotTrace(ctx); id != "" || spans != nil {
		t.Fatalf("untraced snapshot = (%q, %v)", id, spans)
	}
	InjectHeaders(ctx, http.Header{}) // must not panic or set anything
}

func TestBuildTreeNestsAndSorts(t *testing.T) {
	spans := []SpanData{
		{SpanID: "c2", ParentID: "root", Name: "beta", Start: 20},
		{SpanID: "root", Name: "root", Start: 0},
		{SpanID: "c1", ParentID: "root", Name: "alpha", Start: 10},
		{SpanID: "g1", ParentID: "c1", Name: "leaf", Start: 11},
	}
	tree := BuildTree(spans)
	if tree == nil || tree.Name != "root" {
		t.Fatalf("tree root = %+v", tree)
	}
	if len(tree.Children) != 2 || tree.Children[0].Name != "alpha" || tree.Children[1].Name != "beta" {
		t.Fatalf("children not sorted by start: %+v", tree.Children)
	}
	if len(tree.Children[0].Children) != 1 || tree.Children[0].Children[0].Name != "leaf" {
		t.Fatalf("grandchild missing: %+v", tree.Children[0].Children)
	}
	flat := tree.Flatten()
	if len(flat) != len(spans) {
		t.Fatalf("Flatten lost spans: %d of %d", len(flat), len(spans))
	}

	// Spans with an absent parent get a synthetic root.
	detached := BuildTree([]SpanData{
		{SpanID: "a", ParentID: "missing", Name: "a", TraceID: "t"},
		{SpanID: "b", ParentID: "missing2", Name: "b", TraceID: "t"},
	})
	if detached.Name != "(detached)" || len(detached.Children) != 2 {
		t.Fatalf("detached tree = %+v", detached)
	}
	if BuildTree(nil) != nil {
		t.Fatal("empty BuildTree not nil")
	}
}

func TestSnapshotTraceIncludesInProgress(t *testing.T) {
	root := StartTrace("root", "svc", SpanContext{}, nil)
	ctx := ContextWithSpan(context.Background(), root)
	_, open := StartSpan(ctx, "open")
	_, closed := StartSpan(ctx, "closed")
	closed.Finish()

	id, spans := SnapshotTrace(ctx)
	if id != root.TraceID() || len(spans) != 3 {
		t.Fatalf("snapshot = (%q, %d spans), want (%q, 3)", id, len(spans), root.TraceID())
	}
	byName := map[string]SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
	}
	if !byName["root"].InProgress || !byName["open"].InProgress {
		t.Fatalf("open spans not marked in-progress: %+v", byName)
	}
	if byName["closed"].InProgress {
		t.Fatal("finished span marked in-progress")
	}
	open.Finish()
}

func TestRecordStandaloneSlowOnly(t *testing.T) {
	col := NewCollector(4, 100*time.Millisecond)
	RecordStandalone(col, "wal", "wal.group_commit", time.Now(), time.Millisecond, nil)
	RecordStandalone(col, "wal", "wal.group_commit", time.Now(), time.Second, map[string]any{"fsyncMs": 900})
	if got := col.Recent(); len(got) != 0 {
		t.Fatalf("standalone traces leaked into recent: %+v", got)
	}
	sl := col.Slow()
	if len(sl) != 1 || sl[0].Root != "wal.group_commit" || len(sl[0].Spans) != 1 {
		t.Fatalf("slow ring %+v, want one group-commit trace", sl)
	}
	RecordStandalone(nil, "wal", "x", time.Now(), time.Second, nil) // nil collector no-ops

	// A record under the threshold is refused before anything is built.
	attrs := map[string]any{"fsyncMs": 1.0}
	start := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		RecordStandalone(col, "wal", "wal.group_commit", start, time.Millisecond, attrs)
	}); allocs != 0 {
		t.Errorf("a fast standalone record allocates %.0f times, want 0", allocs)
	}
	if col.KeepsSlow(99*time.Millisecond) || !col.KeepsSlow(100*time.Millisecond) || (*Collector)(nil).KeepsSlow(time.Hour) {
		t.Error("KeepsSlow disagrees with the 100ms threshold")
	}
}

func TestTracesHandlerFilters(t *testing.T) {
	col := NewCollector(4, time.Hour)
	col.Offer(TraceData{TraceID: "aaa", Root: "GET /x"})
	col.Offer(TraceData{TraceID: "bbb", Root: "GET /y"})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	var p struct {
		Capacity int         `json:"capacity"`
		Offered  uint64      `json:"offered"`
		Recent   []TraceData `json:"recent"`
		Slow     []TraceData `json:"slow"`
	}
	get := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		p = struct {
			Capacity int         `json:"capacity"`
			Offered  uint64      `json:"offered"`
			Recent   []TraceData `json:"recent"`
			Slow     []TraceData `json:"slow"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
	}
	get(srv.URL)
	if p.Capacity != 4 || p.Offered != 2 || len(p.Recent) != 2 {
		t.Fatalf("payload %+v", p)
	}
	get(srv.URL + "?trace=bbb")
	if len(p.Recent) != 1 || p.Recent[0].TraceID != "bbb" {
		t.Fatalf("filter returned %+v", p.Recent)
	}
}

func TestRequestIDReplacesMalformed(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	bad := []string{
		strings.Repeat("x", maxRequestIDLen+1), // oversized
		"has space",
		"quote\"id",
		"ctrl\x01id",
		"non-ascii-\xc3\xa9",
	}
	for _, id := range bad {
		req := httptest.NewRequest("GET", "/x", nil)
		req.Header.Set("X-Request-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if seen == id {
			t.Errorf("malformed id %q propagated", id)
		}
		if seen == "" || rec.Header().Get("X-Request-Id") != seen {
			t.Errorf("no replacement id assigned for %q: ctx=%q", id, seen)
		}
	}
	// A well-formed ID at exactly the cap is kept.
	max := strings.Repeat("y", maxRequestIDLen)
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-Id", max)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seen != max {
		t.Fatalf("cap-length id replaced: %q", seen)
	}
}

func TestAccessLogSkipsScrapesAndProbes(t *testing.T) {
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h := AccessLog(log, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	for _, p := range []string{"/metrics", "/v1/healthz"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
	}
	if out := buf.String(); out != "" {
		t.Fatalf("scrape/probe requests logged: %s", out)
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stats", nil))
	if out := buf.String(); !strings.Contains(out, "path=/v1/stats") {
		t.Fatalf("real request not logged: %s", out)
	}
}

func TestBuildInfoMetric(t *testing.T) {
	v, gover := BuildInfo()
	if v == "" || gover == "" {
		t.Fatalf("BuildInfo() = (%q, %q)", v, gover)
	}
	r := NewRegistry()
	RegisterBuildInfo(r)
	for _, p := range r.Gather() {
		if strings.HasPrefix(p.Name, "stsmatch_build_info{") {
			if p.Value != 1 {
				t.Fatalf("build_info value = %v, want 1", p.Value)
			}
			if !strings.Contains(p.Name, `version="`+v+`"`) || !strings.Contains(p.Name, `goversion="`+gover+`"`) {
				t.Fatalf("build_info labels wrong: %s", p.Name)
			}
			return
		}
	}
	t.Fatal("stsmatch_build_info not gathered")
}
