package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
)

// TestMatchDebugProfile exercises the inline explain: ?debug=profile
// returns the query's span tree with the matcher funnel stages nested
// under the handler root, and the trace is retrievable from /v1/traces
// afterwards under the same ID.
func TestMatchDebugProfile(t *testing.T) {
	ts, seq := matchTestServer(t)
	qseq := seq[len(seq)-10:]

	// Without the flag the response carries no profile.
	resp := postJSON(t, ts.URL+"/v1/match", MatchRequest{Seq: qseq, PatientID: "P01", SessionID: "S01", K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	if mr := decode[MatchResponse](t, resp); mr.Profile != nil {
		t.Fatal("profile returned without debug=profile")
	}

	// Threshold mode (k = 0): every scanned candidate is accounted for
	// by exactly one downstream stage, so the funnel sums exactly (in
	// top-k mode heap displacement breaks that identity).
	resp = postJSON(t, ts.URL+"/v1/match?debug=profile", MatchRequest{Seq: qseq, PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	mr := decode[MatchResponse](t, resp)
	if mr.Profile == nil || mr.Profile.Root == nil {
		t.Fatal("no profile in debug=profile response")
	}
	if mr.Profile.TraceID != traceID {
		t.Fatalf("profile trace %s != X-Trace-Id %s", mr.Profile.TraceID, traceID)
	}
	root := mr.Profile.Root
	if root.Name != "POST /v1/match" {
		t.Fatalf("root span %q, want POST /v1/match", root.Name)
	}
	if !root.InProgress {
		t.Fatal("handler root should be snapshotted in-progress")
	}

	byName := map[string]*obs.SpanNode{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		byName[n.Name] = n
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	search, ok := byName["matcher.search"]
	if !ok {
		t.Fatalf("no matcher.search span in profile: %v", keys(byName))
	}
	if search.ParentID != root.SpanID {
		t.Fatalf("matcher.search parent %s, want handler root %s", search.ParentID, root.SpanID)
	}
	stages := []string{
		"funnel.state_order", "funnel.self_exclusion", "funnel.lb_prune",
		"funnel.exact_distance", "funnel.topk_merge",
	}
	for _, stage := range stages {
		n, ok := byName[stage]
		if !ok {
			t.Errorf("missing funnel stage %s", stage)
			continue
		}
		if n.ParentID != search.SpanID {
			t.Errorf("%s nested under %s, want matcher.search", stage, n.ParentID)
		}
	}
	// JSON numbers decode as float64; the funnel must sum exactly.
	attr := func(span, key string) int {
		n := byName[span]
		if n == nil {
			return -1
		}
		v, _ := n.Attrs[key].(float64)
		return int(v)
	}
	scanned := attr("funnel.state_order", "candidates")
	sum := attr("funnel.self_exclusion", "selfExcluded") +
		attr("funnel.lb_prune", "lbPruned") +
		attr("funnel.exact_distance", "distRejected") +
		attr("funnel.topk_merge", "matched")
	if scanned < 0 || scanned != sum {
		t.Errorf("funnel does not sum: scanned=%d, downstream stages account for %d", scanned, sum)
	}
	if got := attr("funnel.topk_merge", "matched"); got != len(mr.Matches) {
		t.Errorf("profile matched=%d, response has %d matches", got, len(mr.Matches))
	}

	// The finished trace is retrievable by ID from /v1/traces.
	tr, err := http.Get(ts.URL + "/v1/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	payload := decode[struct {
		Recent []obs.TraceData `json:"recent"`
	}](t, tr)
	if len(payload.Recent) != 1 || payload.Recent[0].TraceID != traceID {
		t.Fatalf("/v1/traces?trace=%s returned %d traces", traceID, len(payload.Recent))
	}
}

// postTraced POSTs a JSON body with the given traceparent ("" sends
// none) and returns the response's X-Trace-Id.
func postTraced(t *testing.T, url string, body any, traceparent string, status int) string {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-"+traceparent)
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != status {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, status)
	}
	return resp.Header.Get("X-Trace-Id")
}

// tracesOf returns what a server's collector holds for one trace ID.
func tracesOf(t *testing.T, base, id string) (recent, slow []obs.TraceData) {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces?trace=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	p := decode[struct {
		Recent []obs.TraceData `json:"recent"`
		Slow   []obs.TraceData `json:"slow"`
	}](t, resp)
	return p.Recent, p.Slow
}

func spanNames(td obs.TraceData) map[string]bool {
	out := map[string]bool{}
	for _, sd := range td.Spans {
		out[sd.Name] = true
	}
	return out
}

// TestServedMatchHeadSampling: a served match is recorded in full when
// its caller sampled it (-01) or when it is the one in obs.SampleEvery
// of the requests arriving without a trace context; a caller's -00 is
// never recorded. Every response carries its trace ID either way.
func TestServedMatchHeadSampling(t *testing.T) {
	ts, seq := matchTestServer(t)
	// Each request asks its query from a session of its own: one asked
	// again would be repaired from the matcher's kept answer, and its
	// funnel stages would not run.
	asked := 0
	body := func() MatchRequest {
		asked++
		return MatchRequest{Seq: seq[len(seq)-10:], PatientID: "P01", SessionID: fmt.Sprintf("S01~%d", asked), K: 3}
	}
	repaired := obs.Default().Counter("stsmatch_matcher_repaired_total", "")
	defer func(before uint64) {
		if n := repaired.Value() - before; n != 0 {
			t.Errorf("%d of the matches were repairs, not searches", n)
		}
	}(repaired.Value())
	const traceID = "0123456789abcdef0123456789abcdef"
	const parent = "00-" + traceID + "-0123456789abcdef"

	for i := 0; i < 2*obs.SampleEvery; i++ {
		if id := postTraced(t, ts.URL+"/v1/match", body(), parent+"-00", http.StatusOK); id != traceID {
			t.Fatalf("unsampled caller's trace not continued: X-Trace-Id %q", id)
		}
	}
	if recent, slow := tracesOf(t, ts.URL, traceID); len(recent)+len(slow) != 0 {
		t.Fatalf("a -00 caller's matches were kept: %d recent, %d slow", len(recent), len(slow))
	}

	full := 0
	for i := 0; i < obs.SampleEvery; i++ {
		id := postTraced(t, ts.URL+"/v1/match", body(), "", http.StatusOK)
		if len(id) != 32 {
			t.Fatalf("X-Trace-Id %q", id)
		}
		recent, _ := tracesOf(t, ts.URL, id)
		if len(recent) == 0 {
			continue
		}
		full++
		if names := spanNames(recent[0]); !names["matcher.search"] || !names["funnel.exact_distance"] {
			t.Fatalf("sampled match recorded without its funnel: %v", names)
		}
	}
	if full != 1 {
		t.Fatalf("%d of %d consecutive parentless matches recorded, want 1", full, obs.SampleEvery)
	}

	for i := 0; i < 3; i++ {
		span := fmt.Sprintf("%016x", i+1)
		sampledID := fmt.Sprintf("%032x", i+1)
		postTraced(t, ts.URL+"/v1/match", body(), "00-"+sampledID+"-"+span+"-01", http.StatusOK)
		recent, _ := tracesOf(t, ts.URL, sampledID)
		if len(recent) != 1 || !spanNames(recent[0])["matcher.search"] {
			t.Fatalf("a -01 caller's match %d not recorded in full: %+v", i, recent)
		}
	}
}

// TestSlowUnsampledRequestKept: an unsampled request over the slow
// threshold lands in the slow ring as a root-only record carrying its
// status and requestId.
func TestSlowUnsampledRequestKept(t *testing.T) {
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{TraceSlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	tp := "00-" + fmt.Sprintf("%032x", 7) + "-" + fmt.Sprintf("%016x", 7) + "-00"
	id := postTraced(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"}, tp, http.StatusCreated)
	recent, slow := tracesOf(t, ts.URL, id)
	if len(recent) != 0 || len(slow) != 1 {
		t.Fatalf("unsampled slow request: %d recent, %d slow records, want 0 and 1", len(recent), len(slow))
	}
	td := slow[0]
	if td.Root != "POST /v1/sessions" || len(td.Spans) != 1 {
		t.Fatalf("slow record %+v, want the root span alone", td)
	}
	if rid, _ := td.Spans[0].Attrs["requestId"].(string); rid != "req-"+tp {
		t.Errorf("slow record requestId %q", rid)
	}
	if st, _ := td.Spans[0].Attrs["status"].(float64); st != http.StatusCreated {
		t.Errorf("slow record status %v", td.Spans[0].Attrs["status"])
	}
}

// TestHealthzReportsBuildInfo pins the fleet-audit fields.
func TestHealthzReportsBuildInfo(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	hr := decode[HealthzResponse](t, resp)
	wantV, wantGo := obs.BuildInfo()
	if hr.Version != wantV || hr.GoVersion != wantGo {
		t.Fatalf("healthz build info (%q, %q), want (%q, %q)", hr.Version, hr.GoVersion, wantV, wantGo)
	}
}

func keys(m map[string]*obs.SpanNode) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
