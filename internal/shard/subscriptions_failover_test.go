package shard_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/testutil"
)

// matchSet polls POST /v1/match and indexes the result by window.
func matchSet(t *testing.T, baseURL string, req server.MatchRequest) map[string]server.RemoteMatch {
	t.Helper()
	resp := testutil.PostJSON(t, baseURL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle match via %s: status %d", baseURL, resp.StatusCode)
	}
	mr := testutil.Decode[server.MatchResponse](t, resp)
	out := make(map[string]server.RemoteMatch, len(mr.Matches))
	for _, m := range mr.Matches {
		out[windowKey(m.PatientID, m.SessionID, m.Start, m.N)] = m
	}
	return out
}

func windowKey(pid, sid string, start, n int) string {
	return pid + "/" + sid + "/" + strconv.Itoa(start) + "+" + strconv.Itoa(n)
}

// diffMatches returns the windows in cur but not in prev, in start
// order — the oracle's "new matches since the last poll".
func diffMatches(cur, prev map[string]server.RemoteMatch) []server.RemoteMatch {
	var out []server.RemoteMatch
	for k, m := range cur {
		if _, ok := prev[k]; !ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// TestGatewaySubscriptionScope: unscoped subscriptions have no single
// owner under sharding and are rejected at the gateway; scoped ones
// route to the owning shard, and delete + list work through the
// gateway.
func TestGatewaySubscriptionScope(t *testing.T) {
	c := testutil.StartCluster(t, 2, 0)
	createSession(t, c.URL, "P01", "S01")
	for _, b := range respBatches(t, 5, 20) {
		ingestBatch(t, c.URL, "S01", b)
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S01/plr")
	if len(pr.Vertices) < 4 {
		t.Fatalf("PLR too short: %d", len(pr.Vertices))
	}
	seq := plr.Sequence(pr.Vertices[:4])

	if resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", server.SubscriptionRequest{Seq: seq}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unscoped subscription: status %d, want 400", resp.StatusCode)
	}
	resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", server.SubscriptionRequest{ID: "g1", Seq: seq, SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("scoped subscription: status %d", resp.StatusCode)
	}
	list := testutil.GetJSON[shard.GatewaySubsResponse](t, c.URL+"/v1/subscriptions")
	if len(list.Subscriptions) != 1 || list.Subscriptions[0].ID != "g1" {
		t.Fatalf("gateway list = %+v, want [g1]", list.Subscriptions)
	}
	req, err := http.NewRequest(http.MethodDelete, c.URL+"/v1/subscriptions/g1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway delete: %v status %d", err, resp.StatusCode)
	}
	if list := testutil.GetJSON[shard.GatewaySubsResponse](t, c.URL+"/v1/subscriptions"); len(list.Subscriptions) != 0 {
		t.Errorf("list after delete = %+v, want empty", list.Subscriptions)
	}
}

// TestGatewaySubscriptionPoll: a long-poll (?mode=poll) through the
// gateway is one request relayed to the shard serving the subscription.
// It answers at once with that shard's own bytes, forwards
// Last-Event-ID, and a wait longer than the gateway's per-attempt
// timeout still gets the shard's answer — there through a fresh gateway
// that finds the subscription by scattering the shards' listings.
func TestGatewaySubscriptionPoll(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2)
	createSession(t, c.URL, "P01", "S01")
	batches := respBatches(t, 5, 60)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, "S01", b)
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S01/plr")
	if len(pr.Vertices) < 8 {
		t.Fatalf("PLR too short: %d", len(pr.Vertices))
	}
	sub := server.SubscriptionRequest{ID: "p1", Seq: pr.Vertices[len(pr.Vertices)-8:], SessionID: "S01"}
	if resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", sub); resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	primary, _, ok := c.Gateway.SessionPlacement("S01")
	if !ok {
		t.Fatal("gateway lost the session placement")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	poll := func(base, query, lastID string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+"/v1/subscriptions/p1/events?mode=poll"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("poll via %s: %v", base, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("poll via %s: %v", base, err)
		}
		return resp, body
	}

	resp, got := poll(c.URL, "", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("poll via gateway: status %d, %s; want 200 application/json", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if _, want := poll(primary, "", ""); string(got) != string(want) {
		t.Errorf("poll via gateway answered %s, the serving shard %s", got, want)
	}

	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, "S01", b)
	}
	_, got = poll(c.URL, "&after=0", "")
	var batch server.SubEventsPoll
	if err := json.Unmarshal(got, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Events) == 0 || batch.Next != batch.Events[len(batch.Events)-1].Seq {
		t.Fatalf("poll after ingest = %s, want the new events", got)
	}

	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL
	}
	const timeout, wait = 200 * time.Millisecond, time.Second
	gw2, err := shard.NewGateway(urls, shard.Options{Transport: c.Transport, Replicas: 2, Timeout: timeout, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	ts2 := httptest.NewServer(gw2)
	defer ts2.Close()
	start := time.Now()
	next := strconv.FormatUint(batch.Next, 10)
	resp, got = poll(ts2.URL, "&wait="+wait.String(), next)
	if elapsed := time.Since(start); resp.StatusCode != http.StatusOK || elapsed < wait {
		t.Fatalf("poll with wait %v past a %v timeout: status %d after %v: %s", wait, timeout, resp.StatusCode, elapsed, got)
	}
	if want := `{"events":[],"next":` + next + "}\n"; string(got) != want {
		t.Errorf("poll with Last-Event-ID %s answered %s, want %s", next, got, want)
	}
}

// TestStandingQuerySurvivesFailover is the push-path half of the
// failover guarantee: a standing query registered through the gateway
// keeps its ONE event stream across a primary kill — the gateway
// reconnects to the promoted follower with Last-Event-ID, the
// follower (armed by replication with the same cursors and sequence
// numbers) re-derives the identical events, and the consumer sees the
// exact polled-oracle diff: no duplicate and no lost event at the
// acked boundary, with bit-identical distances.
func TestStandingQuerySurvivesFailover(t *testing.T) {
	const pid, sid = "P00", "S-P00"
	batches := respBatches(t, 77, 90)
	q1, half := len(batches)/4, len(batches)/2

	// Single-node durable oracle: replay the same deterministic batches
	// and poll /v1/match at the registration point, the kill point, and
	// the end. The diffs are the events the standing query must push.
	// The oracle hard-crashes at the kill point because promotion
	// resumes the session through the same primed-FSM path as WAL crash
	// recovery (see TestFailoverKillPrimary): the promoted follower is
	// vertex-identical to a recovered node, not to one that never
	// stopped.
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)
	createSession(t, oracle.URL, pid, sid)
	for _, b := range batches[:q1] {
		ingestBatch(t, oracle.URL, sid, b)
	}
	pr := testutil.GetJSON[server.PLRResponse](t, oracle.URL+"/v1/sessions/"+sid+"/plr")
	if len(pr.Vertices) < 10 {
		t.Fatalf("PLR too short at registration point: %d", len(pr.Vertices))
	}
	qseq := plr.Sequence(pr.Vertices[len(pr.Vertices)-8:])
	// Session-only provenance, matching the subscription's scope: the
	// relation is other-patient (no patient in the provenance), so
	// self-exclusion does not apply and the diff is exact.
	oracleReq := server.MatchRequest{Seq: qseq, SessionID: sid}
	m0 := matchSet(t, oracle.URL, oracleReq)
	for _, b := range batches[q1:half] {
		ingestBatch(t, oracle.URL, sid, b)
	}
	mHalf := matchSet(t, oracle.URL, oracleReq)
	oracle.Close() // crash at the kill point, recover from the WAL
	oracle = newDurableOracle(t, oracleDir)
	for _, b := range batches[half:] {
		ingestBatch(t, oracle.URL, sid, b)
	}
	mFinal := matchSet(t, oracle.URL, oracleReq)
	expectPre := diffMatches(mHalf, m0)
	expectPost := diffMatches(mFinal, mHalf)
	if len(expectPre) == 0 || len(expectPost) == 0 {
		t.Fatalf("fixture must match on both sides of the kill: %d pre, %d post",
			len(expectPre), len(expectPost))
	}
	expected := append(append([]server.RemoteMatch{}, expectPre...), expectPost...)

	// The cluster under test: replication factor 2, same batches.
	c := testutil.StartCluster(t, 3, 2)
	createSession(t, c.URL, pid, sid)
	for _, b := range batches[:q1] {
		ingestBatch(t, c.URL, sid, b)
	}
	resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", server.SubscriptionRequest{
		ID: "fo-sub", Seq: qseq, SessionID: sid,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe via gateway: status %d", resp.StatusCode)
	}
	sr := testutil.Decode[server.SubscriptionResponse](t, resp)
	if len(sr.ReplicaErrors) > 0 {
		t.Fatalf("subscription not armed on the follower: %v", sr.ReplicaErrors)
	}

	// One SSE stream through the gateway for the whole test.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL+"/v1/subscriptions/fo-sub/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream via gateway: status %d", stream.StatusCode)
	}
	if stream.Header.Get("X-Trace-Id") == "" {
		t.Error("gateway SSE response missing X-Trace-Id")
	}

	type sseEvent struct {
		id   uint64
		data server.SubEventOut
	}
	got := make(chan sseEvent, 1024)
	go func() {
		defer close(got)
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
			case strings.HasPrefix(line, "data: "):
				if json.Unmarshal([]byte(line[len("data: "):]), &cur.data) == nil {
					got <- cur
				}
			}
		}
	}()
	var events []sseEvent
	collect := func(total int, what string) {
		t.Helper()
		deadline := time.After(60 * time.Second)
		for len(events) < total {
			select {
			case e, ok := <-got:
				if !ok {
					t.Fatalf("%s: stream ended after %d of %d events", what, len(events), total)
				}
				events = append(events, e)
			case <-deadline:
				t.Fatalf("%s: timed out with %d of %d events", what, len(events), total)
			}
		}
	}

	// Phase 1: the standing query pushes the pre-kill oracle diff.
	for _, b := range batches[q1:half] {
		ingestBatch(t, c.URL, sid, b)
	}
	collect(len(expectPre), "pre-kill")

	// Kill the primary. The gateway's upstream stream breaks; it must
	// re-resolve to the promoted follower and resume with
	// Last-Event-ID so the client stream continues seamlessly.
	primary, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", primary, owners)
	}
	c.Kill(primary)
	c.Probe(1)

	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
	}
	collect(len(expected), "post-failover")

	newPrimary, _, ok := c.Gateway.SessionPlacement(sid)
	if !ok || newPrimary == primary {
		t.Fatalf("session did not fail over: primary still %q", newPrimary)
	}

	// Grace period: any duplicate the failover might have re-pushed
	// would arrive right behind the expected tail.
	select {
	case e, chOpen := <-got:
		if chOpen {
			t.Fatalf("extra event after the oracle diff was exhausted: %+v", e)
		}
	case <-time.After(300 * time.Millisecond):
	}
	cancel()

	// The stream is the oracle diff: contiguous sequence numbers from
	// 1 (no duplicate, no gap at the failover boundary) and exactly
	// the oracle's windows with bit-identical distances and weights.
	for i, e := range events {
		if e.id != uint64(i+1) || e.data.Seq != e.id {
			t.Fatalf("event %d: id %d seq %d, want contiguous from 1 (duplicate or gap at the failover boundary)",
				i, e.id, e.data.Seq)
		}
		want := expected[i]
		if e.data.PatientID != want.PatientID || e.data.SessionID != want.SessionID ||
			e.data.Start != want.Start || e.data.N != want.N ||
			e.data.Relation != want.Relation ||
			e.data.Distance != want.Distance || e.data.Weight != want.Weight {
			t.Errorf("event %d diverged from the polled oracle:\n got %+v\nwant %+v", i, e.data, want)
		}
	}

	// Surface the subscription counters for the chaos CI logs.
	for _, n := range c.Nodes {
		if n.Killed() {
			continue
		}
		logMetricLines(t, "backend "+n.URL, n.URL,
			"stsmatch_sub_active", "stsmatch_sub_eval_total",
			"stsmatch_sub_events_delivered_total")
	}
}
