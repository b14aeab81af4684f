package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/signal"
	"stsmatch/internal/testutil"
)

// matcherFunnelTotals snapshots the process-global matcher funnel
// counters; the in-process cluster shares one registry, so deltas
// equal the sum over every shard.
func matcherFunnelTotals() map[string]float64 {
	out := map[string]float64{}
	for _, p := range obs.Default().Gather() {
		if strings.HasPrefix(p.Name, "stsmatch_matcher_") {
			out[p.Name] = p.Value
		}
	}
	return out
}

// TestMatchProfileAcrossShards is the cross-service explain
// acceptance: ?debug=profile against a 2-shard gateway returns one
// span tree under a single trace ID with one scatter leg per shard,
// per-stage funnel spans from each backend, and per-shard candidate
// counts that sum to exactly what the query added to the funnel
// metrics.
func TestMatchProfileAcrossShards(t *testing.T) {
	c := testutil.StartCluster(t, 2, 1)
	// Both shards must hold data or the scatter tree is degenerate. The
	// ring hashes the nodes' ephemeral addresses, so four patients can
	// all land on one shard: keep adding patients until each holds one.
	emptyShard := func() string {
		for _, n := range c.Nodes {
			if testutil.GetJSON[server.StatsResponse](t, n.URL+"/v1/stats").Patients == 0 {
				return n.URL
			}
		}
		return ""
	}
	for i := 0; i < 4 || emptyShard() != ""; i++ {
		if i == 16 {
			t.Fatalf("ring placed none of %d patients on %s", i, emptyShard())
		}
		pid := fmt.Sprintf("P%02d", i)
		ingestSession(t, c.URL, pid, "S-"+pid, int64(300+i))
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S-P00/plr")
	if len(pr.Vertices) < 12 {
		t.Fatalf("query stream too short: %d vertices", len(pr.Vertices))
	}
	seq := pr.Vertices[len(pr.Vertices)-10:]

	before := matcherFunnelTotals()
	resp := testutil.PostJSON(t, c.URL+"/v1/match?debug=profile",
		server.MatchRequest{Seq: seq, PatientID: "P00", SessionID: "S-P00"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	after := matcherFunnelTotals()
	res := testutil.Decode[shard.MatchResult](t, resp)
	if res.Degraded || res.ShardsOK != 2 {
		t.Fatalf("degraded scatter: %d/%d shards", res.ShardsOK, res.ShardsQueried)
	}
	if res.Profile == nil || res.Profile.Root == nil {
		t.Fatal("no profile in gateway debug=profile response")
	}

	root := res.Profile.Root
	if root.Name != "POST /v1/match" || root.Service != "gateway" {
		t.Fatalf("root span = %s/%s, want gateway POST /v1/match", root.Service, root.Name)
	}

	// Every span in the merged tree shares the root's trace ID.
	flat := root.Flatten()
	for _, sd := range flat {
		if sd.TraceID != res.Profile.TraceID {
			t.Fatalf("span %s has trace %s, want %s", sd.Name, sd.TraceID, res.Profile.TraceID)
		}
	}

	var legs []*obs.SpanNode
	for _, child := range root.Children {
		if child.Name == "scatter.leg" {
			legs = append(legs, child)
		}
	}
	if len(legs) != 2 {
		t.Fatalf("%d scatter.leg children, want one per shard (2); tree root children: %v",
			len(legs), childNames(root))
	}

	// Each leg carries the backend's handler span and its funnel
	// stages; per-shard candidates sum to the global metric delta.
	wantStages := []string{
		"funnel.state_order", "funnel.self_exclusion", "funnel.lb_prune",
		"funnel.exact_distance", "funnel.topk_merge",
	}
	scanned, matched := 0, 0
	backends := map[string]bool{}
	for _, leg := range legs {
		byName := map[string]obs.SpanData{}
		for _, sd := range leg.Flatten() {
			byName[sd.Name] = sd
		}
		if b, _ := leg.Attrs["backend"].(string); b != "" {
			backends[b] = true
		}
		if _, ok := byName["backend.request"]; !ok {
			t.Fatalf("leg has no backend.request span: %v", flatNames(leg))
		}
		srvRoot, ok := byName["POST /v1/match"]
		if !ok || srvRoot.Service != "server" {
			t.Fatalf("leg missing the backend handler span: %v", flatNames(leg))
		}
		for _, stage := range wantStages {
			if _, ok := byName[stage]; !ok {
				t.Fatalf("leg missing funnel stage %s: %v", stage, flatNames(leg))
			}
		}
		scanned += attrInt(byName["funnel.state_order"], "candidates")
		matched += attrInt(byName["funnel.topk_merge"], "matched")
	}
	if len(backends) != 2 {
		t.Fatalf("scatter legs hit %d distinct backends, want 2: %v", len(backends), backends)
	}
	delta := int(after["stsmatch_matcher_candidates_scanned_total"] - before["stsmatch_matcher_candidates_scanned_total"])
	if scanned != delta {
		t.Errorf("profile candidates across shards = %d, funnel metric delta = %d", scanned, delta)
	}
	mdelta := int(after["stsmatch_matcher_matches_total"] - before["stsmatch_matcher_matches_total"])
	if matched != mdelta {
		t.Errorf("profile matched across shards = %d, matches metric delta = %d", matched, mdelta)
	}
}

// TestTracePropagation drives one traced ingest through the gateway of
// a replicated 2x2 cluster and asserts the caller's trace ID appears
// in the gateway's collector, the primary's collector (including the
// synchronous repl.ship span), and the follower's /v1/replicate trace:
// one trace ID across all four services in the request's path.
func TestTracePropagation(t *testing.T) {
	c := testutil.StartCluster(t, 2, 2)
	const pid, sid = "TP", "S-TP"
	resp := testutil.PostJSON(t, c.URL+"/v1/sessions",
		server.CreateSessionRequest{PatientID: pid, SessionID: sid})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session status %d", resp.StatusCode)
	}

	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var batch []server.SampleIn
	for _, s := range gen.Generate(5) {
		batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	const traceID = "0123456789abcdef0123456789abcdef"
	const callerSpan = "0123456789abcdef"
	req, err := http.NewRequest(http.MethodPost, c.URL+"/v1/sessions/"+sid+"/samples", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-"+traceID+"-"+callerSpan+"-01")
	ingResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer ingResp.Body.Close()
	if ingResp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", ingResp.StatusCode)
	}
	if got := ingResp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("gateway X-Trace-Id = %q, want propagated %q", got, traceID)
	}

	primary, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("session placement: primary=%q owners=%v ok=%v", primary, owners, ok)
	}
	var follower string
	for _, o := range owners {
		if o != primary {
			follower = o
		}
	}

	findTrace := func(col *obs.Collector, service string) obs.TraceData {
		t.Helper()
		for _, td := range col.Recent() {
			if td.TraceID == traceID {
				return td
			}
		}
		t.Fatalf("%s collector has no trace %s", service, traceID)
		return obs.TraceData{}
	}

	// Gateway: the proxied ingest continued the caller's trace, and
	// its root is a child of the caller's span.
	gtd := findTrace(c.Gateway.Traces(), "gateway")
	if gtd.Root != "POST /v1/sessions/"+sid+"/samples" {
		t.Fatalf("gateway trace root %q", gtd.Root)
	}
	for _, sd := range gtd.Spans {
		if sd.Name == gtd.Root && sd.ParentID != callerSpan {
			t.Fatalf("gateway root parent %q, want caller span %q", sd.ParentID, callerSpan)
		}
	}

	// Primary: same trace, with the synchronous replication ship span
	// to the follower.
	ptd := findTrace(c.Node(primary).Server.Traces(), "primary")
	var ship *obs.SpanData
	for i, sd := range ptd.Spans {
		if sd.Name == "repl.ship" {
			ship = &ptd.Spans[i]
		}
	}
	if ship == nil {
		t.Fatalf("primary trace has no repl.ship span: %v", traceSpanNames(ptd))
	}
	if got, _ := ship.Attrs["target"].(string); got != follower {
		t.Fatalf("repl.ship target %q, want follower %q", got, follower)
	}

	// Follower: the shipped batch arrived under the same trace ID.
	ftd := findTrace(c.Node(follower).Server.Traces(), "follower")
	if ftd.Root != "POST /v1/replicate" {
		t.Fatalf("follower trace root %q, want POST /v1/replicate", ftd.Root)
	}
}

// TestGatewayHeadSampling: the gateway's sampling decision travels with
// its legs. Of obs.SampleEvery consecutive queries arriving without a
// trace context, the one the gateway samples leaves one tree across the
// gateway and all three shards, and the others leave no trace anywhere;
// a caller's -01 query is one tree every time.
func TestGatewayHeadSampling(t *testing.T) {
	// Every query is the same one, and each scatters to all three shards.
	c := testutil.StartCluster(t, 3, 1)
	emptyShard := func() bool {
		for _, n := range c.Nodes {
			if testutil.GetJSON[server.StatsResponse](t, n.URL+"/v1/stats").Patients == 0 {
				return true
			}
		}
		return false
	}
	for i := 0; i < 3 || emptyShard(); i++ {
		if i == 24 {
			t.Fatalf("ring left a shard empty after %d patients", i)
		}
		pid := fmt.Sprintf("P%02d", i)
		ingestSession(t, c.URL, pid, "S-"+pid, int64(500+i))
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S-P00/plr")
	body, err := json.Marshal(server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-10:], PatientID: "P00", SessionID: "S-P00"})
	if err != nil {
		t.Fatal(err)
	}
	match := func(traceparent string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, c.URL+"/v1/match", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set(obs.TraceparentHeader, traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Trace-Id")
	}
	recorded := func(col *obs.Collector, id string) []obs.TraceData {
		var out []obs.TraceData
		for _, td := range col.Recent() {
			if td.TraceID == id {
				out = append(out, td)
			}
		}
		return out
	}
	// A service offers a trace when its handler chain unwinds, which can
	// be just after its caller has the reply's headers: wait for it.
	awaitRecorded := func(col *obs.Collector, id string) []obs.TraceData {
		tds := recorded(col, id)
		for wait := 0; len(tds) == 0 && wait < 200; wait++ {
			time.Sleep(5 * time.Millisecond)
			tds = recorded(col, id)
		}
		return tds
	}
	// oneTree: the gateway holds the query's trace and every shard holds
	// exactly one trace under the same ID, rooted on a gateway span.
	oneTree := func(id string) {
		t.Helper()
		gw := awaitRecorded(c.Gateway.Traces(), id)
		if len(gw) != 1 {
			t.Fatalf("gateway holds %d traces %s, want 1", len(gw), id)
		}
		gwSpans := map[string]bool{}
		for _, sd := range gw[0].Spans {
			gwSpans[sd.SpanID] = true
		}
		for _, n := range c.Nodes {
			tds := awaitRecorded(n.Server.Traces(), id)
			if len(tds) != 1 {
				t.Fatalf("shard %s holds %d traces %s, want 1", n.URL, len(tds), id)
			}
			for _, sd := range tds[0].Spans {
				if sd.Name == tds[0].Root && !gwSpans[sd.ParentID] {
					t.Fatalf("shard %s root %s has parent %s, not a gateway span", n.URL, sd.Name, sd.ParentID)
				}
			}
			if !slices.ContainsFunc(tds[0].Spans, func(sd obs.SpanData) bool { return sd.Name == "matcher.search" }) {
				t.Fatalf("shard %s trace has no matcher.search: %v", n.URL, traceSpanNames(tds[0]))
			}
		}
	}

	ids := make([]string, obs.SampleEvery)
	for i := range ids {
		ids[i] = match("")
	}
	// Wait until the gateway has offered a trace for one of the queries,
	// then split them by whether it holds theirs.
	isSampled := func(id string) bool { return len(recorded(c.Gateway.Traces(), id)) != 0 }
	for wait := 0; !slices.ContainsFunc(ids, isSampled) && wait < 200; wait++ {
		time.Sleep(5 * time.Millisecond)
	}
	var sampled, unsampled []string
	for _, id := range ids {
		if isSampled(id) {
			sampled = append(sampled, id)
		} else {
			unsampled = append(unsampled, id)
		}
	}
	if len(sampled) != 1 {
		t.Fatalf("gateway sampled %d of %d consecutive queries, want 1", len(sampled), obs.SampleEvery)
	}
	oneTree(sampled[0])
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("%032x", 0xc0ffee+i)
		if got := match("00-" + id + "-00000000000000aa-01"); got != id {
			t.Fatalf("X-Trace-Id %q, want the caller's %q", got, id)
		}
		oneTree(id)
	}
	// Checked last, after the waits above, so a late-landing gateway or
	// shard trace would be seen.
	for _, id := range unsampled {
		if isSampled(id) {
			t.Fatalf("unsampled query %s left a trace on the gateway", id)
		}
		for _, n := range c.Nodes {
			if tds := recorded(n.Server.Traces(), id); len(tds) != 0 {
				t.Fatalf("unsampled query %s left a trace on shard %s: %v", id, n.URL, traceSpanNames(tds[0]))
			}
		}
	}
}

func attrInt(sd obs.SpanData, key string) int {
	switch v := sd.Attrs[key].(type) {
	case int:
		return v
	case float64: // after a JSON round trip
		return int(v)
	}
	return 0
}

func childNames(n *obs.SpanNode) []string {
	out := make([]string, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Name
	}
	return out
}

func flatNames(n *obs.SpanNode) []string {
	flat := n.Flatten()
	out := make([]string, len(flat))
	for i, sd := range flat {
		out[i] = sd.Name
	}
	return out
}

func traceSpanNames(td obs.TraceData) []string {
	out := make([]string, len(td.Spans))
	for i, sd := range td.Spans {
		out[i] = sd.Name
	}
	return out
}
