package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/frame"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/signal"
	"stsmatch/internal/testutil"
)

// respBatches cuts a deterministic synthetic respiration trace into
// ingest-sized batches.
func respBatches(t *testing.T, seed int64, seconds float64) [][]server.SampleIn {
	t.Helper()
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), seed)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(seconds)
	const chunk = 256
	var batches [][]server.SampleIn
	for i := 0; i < len(samples); i += chunk {
		end := min(i+chunk, len(samples))
		batch := make([]server.SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
		}
		batches = append(batches, batch)
	}
	return batches
}

func createSession(t *testing.T, baseURL, pid, sid string) {
	t.Helper()
	resp := testutil.PostJSON(t, baseURL+"/v1/sessions",
		server.CreateSessionRequest{PatientID: pid, SessionID: sid})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s/%s via %s: status %d", pid, sid, baseURL, resp.StatusCode)
	}
}

// ingestBatch sends one batch and fails the test unless it is fully
// acknowledged with no replica errors: every batch this helper returns
// from is durable on the primary AND applied on its replicas.
func ingestBatch(t *testing.T, baseURL, sid string, batch []server.SampleIn) {
	t.Helper()
	resp := testutil.PostJSON(t, baseURL+"/v1/sessions/"+sid+"/samples", batch)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest %s via %s: status %d: %s", sid, baseURL, resp.StatusCode, body)
	}
	sr := testutil.Decode[server.SamplesResponse](t, resp)
	if len(sr.ReplicaErrors) > 0 {
		t.Fatalf("ingest %s: acked with replica errors %v", sid, sr.ReplicaErrors)
	}
	if sr.Accepted != len(batch) {
		t.Fatalf("ingest %s: accepted %d of %d", sid, sr.Accepted, len(batch))
	}
}

// matchBody POSTs a match request and returns both the raw response
// bytes and the decoded result, so tests can assert on the exact wire
// payload (e.g. the absence of the "degraded" key).
func matchBody(t *testing.T, baseURL string, req server.MatchRequest) ([]byte, shard.MatchResult) {
	t.Helper()
	resp := testutil.PostJSON(t, baseURL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match via %s: status %d", baseURL, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res shard.MatchResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return raw, res
}

// logMetricLines scrapes a /metrics endpoint and logs every line whose
// name contains one of the given substrings — this is what the chaos
// CI job greps for in its -v output.
func logMetricLines(t *testing.T, label, baseURL string, substrings ...string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Logf("%s: scraping /metrics: %v", label, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, sub := range substrings {
			if strings.Contains(line, sub) {
				t.Logf("%s: %s", label, line)
				break
			}
		}
	}
}

// newDurableOracle builds a single-node oracle journaling to dir with
// fsync on every append, so closing its listener without a clean
// shutdown models a hard crash that loses nothing acknowledged.
func newDurableOracle(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), server.Options{
		DataDir:       dir,
		FsyncInterval: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestFailoverKillPrimary is the headline replication guarantee: with
// replication factor 2, killing a session's primary mid-stream loses
// no acknowledged vertex, and once failover completes the deployment
// answers POST /v1/match byte-identically to a single-node oracle that
// ingested exactly the acknowledged data — with no "degraded" key in
// the response, because every arc of the dead shard is covered by a
// replica.
//
// Promotion resumes the session through the same primed-FSM path as
// WAL crash recovery, so the oracle is a durable single node that hard
// crashes and recovers at the same stream position: the cluster's
// failover must be indistinguishable, vertex for vertex, from that
// node's recovery.
func TestFailoverKillPrimary(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2)
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)

	// Context patients so similarity search has cross-patient
	// candidates on every shard.
	for i := 1; i <= 4; i++ {
		pid := fmt.Sprintf("P%02d", i)
		sid := "S-" + pid
		createSession(t, c.URL, pid, sid)
		createSession(t, oracle.URL, pid, sid)
		for _, b := range respBatches(t, int64(200+i), 45) {
			ingestBatch(t, c.URL, sid, b)
			ingestBatch(t, oracle.URL, sid, b)
		}
	}

	// The victim session: stream half, kill the primary, stream the
	// rest through the failed-over replica. Every batch is mirrored to
	// the oracle only after the cluster acknowledged it.
	const pid, sid = "P00", "S-P00"
	createSession(t, c.URL, pid, sid)
	createSession(t, oracle.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	primary, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", primary, owners)
	}
	c.Kill(primary)
	c.Probe(1) // FailThreshold 1: one failed probe ejects the dead primary

	// Crash the oracle at the same stream position: no clean shutdown,
	// recovery from the WAL alone, exactly like the promoted replica
	// resuming from shipped records.
	oracle.Close()
	oracle = newDurableOracle(t, oracleDir)

	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b) // first batch triggers the failover
		ingestBatch(t, oracle.URL, sid, b)
	}

	newPrimary, _, ok := c.Gateway.SessionPlacement(sid)
	if !ok || newPrimary == primary {
		t.Fatalf("session did not fail over: primary still %q", newPrimary)
	}
	if c.Node(newPrimary).Killed() {
		t.Fatal("failed over onto the killed backend")
	}

	// Zero acknowledged loss: the PLR served through the gateway is
	// vertex-for-vertex the PLR of a single node that saw exactly the
	// acknowledged samples.
	got := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	want := testutil.GetJSON[server.PLRResponse](t, oracle.URL+"/v1/sessions/"+sid+"/plr")
	if len(got.Vertices) != len(want.Vertices) {
		t.Fatalf("PLR length %d after failover, oracle has %d: acknowledged data lost",
			len(got.Vertices), len(want.Vertices))
	}
	for i := range want.Vertices {
		if !reflect.DeepEqual(got.Vertices[i], want.Vertices[i]) {
			t.Fatalf("PLR vertex %d diverged after failover: got %+v want %+v",
				i, got.Vertices[i], want.Vertices[i])
		}
	}

	// Match equivalence: element-wise identical to the oracle, and the
	// raw response must not carry a "degraded" key — the dead shard's
	// data is fully covered by replicas.
	seq := plr.Sequence(want.Vertices[len(want.Vertices)-10:])
	for _, k := range []int{0, 10} {
		req := server.MatchRequest{Seq: seq, PatientID: pid, SessionID: sid, K: k}
		oresp := testutil.PostJSON(t, oracle.URL+"/v1/match", req)
		if oresp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: oracle match status %d", k, oresp.StatusCode)
		}
		om := testutil.Decode[server.MatchResponse](t, oresp)
		if len(om.Matches) == 0 {
			t.Fatalf("k=%d: oracle found no matches; fixture is broken", k)
		}
		raw, res := matchBody(t, c.URL, req)
		if bytes.Contains(raw, []byte(`"degraded"`)) {
			t.Errorf("k=%d: post-failover match response carries a degraded marker: %s", k, trunc(raw))
		}
		if res.ShardsOK != 2 || res.ShardsQueried != 3 {
			t.Errorf("k=%d: fan-out %d/%d, want 2/3", k, res.ShardsOK, res.ShardsQueried)
		}
		ob, _ := json.Marshal(om.Matches)
		gb, _ := json.Marshal(res.Matches)
		if !bytes.Equal(ob, gb) {
			t.Errorf("k=%d: post-failover matches differ from oracle\noracle:  %s\ngateway: %s",
				k, trunc(ob), trunc(gb))
		}
	}

	// Surface the failover and replication counters for the chaos CI
	// logs.
	logMetricLines(t, "gateway", c.URL,
		"stsmatch_gateway_failovers_total", "stsmatch_gateway_degraded_total")
	for _, n := range c.Nodes {
		if n.Killed() {
			continue
		}
		logMetricLines(t, "backend "+n.URL, n.URL,
			"stsmatch_repl_lag_records", "stsmatch_repl_shipped_records_total",
			"stsmatch_repl_applied_records_total", "stsmatch_repl_promotions_total",
			"stsmatch_repl_snapshots_total")
	}
}

// TestRebalanceAfterGatewayRestartFailsOverOrphan: a session whose
// primary died is held only by its follower, which lists it under
// "replicas", never "sessions". A gateway started after the death has
// an empty placement table, and its Rebalance must still see that
// session — the inventory fold that serves routing and the one that
// feeds the rebalance diff are the same fold — promote the follower,
// and report the session instead of passing it over. (The move onto the
// ring's first owner then fails, because that owner is the dead node;
// what matters is that the session has a live primary afterwards.)
func TestRebalanceAfterGatewayRestartFailsOverOrphan(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2)
	const pid, sid = "P00", "S-P00"
	createSession(t, c.URL, pid, sid)
	for _, b := range respBatches(t, 77, 30) {
		ingestBatch(t, c.URL, sid, b)
	}
	want := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	primary, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", primary, owners)
	}
	follower := owners[1]
	c.Kill(primary)

	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL
	}
	gw2, err := shard.NewGateway(urls, shard.Options{
		Transport:      c.Transport,
		Replicas:       2,
		HealthInterval: -1,
		FailThreshold:  1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	ts2 := httptest.NewServer(gw2)
	defer ts2.Close()
	gw2.Pool().ProbeAll() // eject the corpse

	rep := gw2.Rebalance(context.Background())
	_, failed := rep.Failed[sid]
	moved := slices.ContainsFunc(rep.Moved, func(m shard.MovedSession) bool { return m.SessionID == sid })
	if rep.Checked != 1 || rep.Skipped != 0 || !(failed || moved) {
		t.Fatalf("rebalance passed over the follower-only session: %+v", rep)
	}
	if got, _, ok := gw2.SessionPlacement(sid); !ok || got != follower {
		t.Fatalf("placement after rebalance = %q (known %v), want the promoted follower %q", got, ok, follower)
	}
	st := testutil.GetJSON[server.ShardStatsResponse](t, follower+"/v1/shard/stats")
	if !slices.ContainsFunc(st.Sessions, func(e server.ShardSession) bool { return e.SessionID == sid }) {
		t.Fatalf("follower %s does not list %s as a primary after the rebalance: %+v", follower, sid, st)
	}

	// Zero acknowledged loss, and the session goes on taking writes.
	got := testutil.GetJSON[server.PLRResponse](t, ts2.URL+"/v1/sessions/"+sid+"/plr")
	if !reflect.DeepEqual(got.Vertices, want.Vertices) {
		t.Fatalf("PLR after failover has %d vertices, before the kill %d: acknowledged data lost or altered",
			len(got.Vertices), len(want.Vertices))
	}
	last := want.Vertices[len(want.Vertices)-1].T
	resp := testutil.PostJSON(t, ts2.URL+"/v1/sessions/"+sid+"/samples",
		[]server.SampleIn{{T: last + 100, Pos: []float64{0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after failover: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// cutTransport is a gateway transport over a cluster carrier that fails
// every request to the node whose URL cut holds: the gateway ejects that
// node while its peers, on their own transports, still reach it.
func cutTransport(t *testing.T, cut *atomic.Pointer[string]) http.RoundTripper {
	carrier := new(testutil.Carrier)
	t.Cleanup(carrier.Close)
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if u := cut.Load(); u != nil && "http://"+r.URL.Host == *u {
			return nil, fmt.Errorf("%s is cut off from the gateway", *u)
		}
		return carrier.RoundTrip(r)
	})
}

// TestFailoverNeverPromotesDeposedPrimary: the gateway loses a primary
// that stays up, fails the session over and acks more ingest on the
// promoted follower. The old primary still holds the session as primary,
// at its pre-failover stream, and answers a promote with "already
// primary here". Once it is readmitted and the new primary dies, the
// gateway must not offer it the session again: promoting it would serve
// a stream without the vertices acked since. The request answers 503.
func TestFailoverNeverPromotesDeposedPrimary(t *testing.T) {
	var cut atomic.Pointer[string]
	c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
		cfg.Gateway.Transport = cutTransport(t, &cut)
	})
	const pid, sid = "P00", "S-P00"
	createSession(t, c.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	third := len(batches) / 3
	for _, b := range batches[:third] {
		ingestBatch(t, c.URL, sid, b)
	}
	old, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", old, owners)
	}
	stale := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")

	cut.Store(&old)
	c.Probe(1) // the gateway ejects the old primary; it stays up
	for _, b := range batches[third : 2*third] {
		ingestBatch(t, c.URL, sid, b) // the first batch fails the session over
	}
	promoted, _, _ := c.Gateway.SessionPlacement(sid)
	if promoted == old {
		t.Fatalf("session did not fail over: primary still %q", promoted)
	}
	acked := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	if len(acked.Vertices) <= len(stale.Vertices) {
		t.Fatalf("PLR has %d vertices after the failover, %d before: fixture too short to tell", len(acked.Vertices), len(stale.Vertices))
	}

	cut.Store(nil)
	c.Probe(2) // the deposed primary is readmitted
	c.Kill(promoted)
	c.Probe(1)

	resp := testutil.PostJSON(t, c.URL+"/v1/sessions/"+sid+"/samples", batches[2*third])
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		plrNow, _ := http.Get(c.URL + "/v1/sessions/" + sid + "/plr")
		var got server.PLRResponse
		if plrNow != nil {
			json.NewDecoder(plrNow.Body).Decode(&got) //nolint:errcheck
			plrNow.Body.Close()
		}
		t.Fatalf("ingest with only the deposed primary left: status %d (%s), want 503; the session now serves %d vertices where %d were acked",
			resp.StatusCode, trunc(body), len(got.Vertices), len(acked.Vertices))
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != promoted {
		t.Errorf("placement = %q after the refused failover, want it left on %q", p, promoted)
	}
}

// TestRebalanceRefoldsPlacementReadMidTransfer: a drain whose
// inventory scatter read a transfer's target before its promote and its
// source after its commit saw only a follower's replica claim, so the
// session is known with no primary. Before failing it over, the gateway
// reads the inventories again, finds the target serving at a higher
// epoch, and promotes no one: the old follower, which has dropped its
// copy, would answer every promote 404. The backends are stubs whose
// inventories change between reads.
func TestRebalanceRefoldsPlacementReadMidTransfer(t *testing.T) {
	type stub struct {
		url      string
		reads    atomic.Int32
		promotes atomic.Int32
	}
	var follower, target stub
	serve := func(st *stub, inventory func(read int32) server.ShardStatsResponse) {
		ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/v1/shard/stats":
				json.NewEncoder(w).Encode(inventory(st.reads.Add(1))) //nolint:errcheck
			case strings.HasSuffix(r.URL.Path, "/promote"):
				st.promotes.Add(1)
				http.Error(w, `{"error":"no replica state"}`, http.StatusNotFound)
			default:
				http.NotFound(w, r)
			}
		})})
		t.Cleanup(ts.Close)
		st.url = ts.URL
	}
	var pid, sid string
	serve(&follower, func(int32) server.ShardStatsResponse {
		return server.ShardStatsResponse{Replicas: []server.ShardSession{{SessionID: sid, PatientID: pid}}}
	})
	serve(&target, func(read int32) server.ShardStatsResponse {
		if read == 1 {
			return server.ShardStatsResponse{}
		}
		return server.ShardStatsResponse{Sessions: []server.ShardSession{{SessionID: sid, PatientID: pid, Epoch: 2}}}
	})
	// A patient the ring designates the target's, so the drain's move
	// ends where the target already serves.
	ring := shard.NewRing(0)
	ring.Add(follower.url)
	ring.Add(target.url)
	for i := 0; pid == ""; i++ {
		if p := fmt.Sprintf("P%02d", i); ring.Owner(p) == target.url {
			pid, sid = p, "S-"+p
		}
	}

	gw, err := shard.NewGateway([]string{follower.url, target.url}, shard.Options{
		Replicas:       2,
		HealthInterval: -1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	rep := gw.Rebalance(context.Background())
	if len(rep.Failed) != 0 {
		t.Fatalf("rebalance failed %v", rep.Failed)
	}
	if primary, _, _ := gw.SessionPlacement(sid); primary != target.url {
		t.Errorf("placement = %q, want the target %s", primary, target.url)
	}
	if n := follower.promotes.Load(); n != 0 {
		t.Errorf("the old follower was asked to promote %d times", n)
	}
	if target.reads.Load() < 2 {
		t.Errorf("the target's inventory was read %d times, want a second read", target.reads.Load())
	}
}

// TestFailoverAfterPrimaryRestart: a primary restarted in place from
// its data dir keeps shipping to its follower, so when it dies after
// the restart the promoted follower serves every vertex the cluster
// acked — before the restart and after it.
func TestFailoverAfterPrimaryRestart(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(_ int, o *server.Options) { o.DataDir = t.TempDir() }
	})
	const pid, sid = "P00", "S-P00"
	createSession(t, c.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
	}
	primary, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", primary, owners)
	}
	before := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")

	c.Restart(primary)
	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
	}
	acked := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	if len(acked.Vertices) <= len(before.Vertices) {
		t.Fatalf("PLR has %d vertices after the restart, %d before: fixture too short to tell", len(acked.Vertices), len(before.Vertices))
	}

	c.Kill(primary)
	c.Probe(1)
	got := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	if now, _, _ := c.Gateway.SessionPlacement(sid); now == primary {
		t.Fatalf("session did not fail over: primary still %q", now)
	}
	if !reflect.DeepEqual(got.Vertices, acked.Vertices) {
		t.Fatalf("the promoted follower serves %d vertices, %d were acked", len(got.Vertices), len(acked.Vertices))
	}
}

// TestReplicationEquivalence checks the steady-state invariant behind
// failover: with every backend healthy at replication factor 2, each
// session is held by exactly one primary and one follower, followers
// carry zero lag after every acknowledged write, and scatter-gather
// match results (which now see each replicated stream twice) stay
// byte-identical to the single-node oracle.
func TestReplicationEquivalence(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2)
	oracle := newOracleTS(t)

	const patients = 6
	for i := 0; i < patients; i++ {
		pid := fmt.Sprintf("P%02d", i)
		sid := "S-" + pid
		createSession(t, c.URL, pid, sid)
		createSession(t, oracle.URL, pid, sid)
		for _, b := range respBatches(t, int64(300+i), 45) {
			ingestBatch(t, c.URL, sid, b)
			ingestBatch(t, oracle.URL, sid, b)
		}
	}

	// Inventory: every session appears on exactly one shard as a
	// primary and one other shard as a follower.
	primaryOn := map[string]string{}
	replicaOn := map[string]string{}
	for _, n := range c.Nodes {
		st := testutil.GetJSON[server.ShardStatsResponse](t, n.URL+"/v1/shard/stats")
		for _, s := range st.Sessions {
			if prev, dup := primaryOn[s.SessionID]; dup {
				t.Errorf("session %s is primary on both %s and %s", s.SessionID, prev, n.URL)
			}
			primaryOn[s.SessionID] = n.URL
		}
		for _, s := range st.Replicas {
			if prev, dup := replicaOn[s.SessionID]; dup {
				t.Errorf("session %s is replicated on both %s and %s", s.SessionID, prev, n.URL)
			}
			replicaOn[s.SessionID] = n.URL
		}
	}
	if len(primaryOn) != patients || len(replicaOn) != patients {
		t.Fatalf("inventory: %d primaries, %d replicas, want %d each", len(primaryOn), len(replicaOn), patients)
	}
	for sid, p := range primaryOn {
		if replicaOn[sid] == "" || replicaOn[sid] == p {
			t.Errorf("session %s: primary %s, replica %s — want a distinct follower", sid, p, replicaOn[sid])
		}
	}

	// Ship-before-ack means zero replica lag at rest: no link of any
	// node's sessions has an unacknowledged record, and the lag gauge
	// agrees (one registry serves every in-process node).
	for _, n := range c.Nodes {
		st := testutil.GetJSON[server.ShardStatsResponse](t, n.URL+"/v1/shard/stats")
		for _, s := range st.Sessions {
			for _, l := range s.Links {
				if l.ShippedSeq != l.AckedSeq || l.SnapshotPending {
					t.Errorf("backend %s: session %s link %+v after full acks, want nothing unacked", n.URL, s.SessionID, l)
				}
			}
		}
		if got := scrapeCounter(t, n.URL, "stsmatch_repl_lag_records"); got != 0 {
			t.Errorf("backend %s: stsmatch_repl_lag_records = %v after full acks, want 0", n.URL, got)
		}
	}

	// Match equivalence with duplicates present on the followers.
	pr := testutil.GetJSON[server.PLRResponse](t, oracle.URL+"/v1/sessions/S-P00/plr")
	seq := plr.Sequence(pr.Vertices[len(pr.Vertices)-10:])
	for _, k := range []int{0, 10} {
		req := server.MatchRequest{Seq: seq, PatientID: "P00", SessionID: "S-P00", K: k}
		oresp := testutil.PostJSON(t, oracle.URL+"/v1/match", req)
		om := testutil.Decode[server.MatchResponse](t, oresp)
		raw, res := matchBody(t, c.URL, req)
		if bytes.Contains(raw, []byte(`"degraded"`)) {
			t.Errorf("k=%d: healthy replicated cluster reports degraded: %s", k, trunc(raw))
		}
		if res.ShardsOK != 3 {
			t.Errorf("k=%d: shardsOk %d, want 3", k, res.ShardsOK)
		}
		ob, _ := json.Marshal(om.Matches)
		gb, _ := json.Marshal(res.Matches)
		if !bytes.Equal(ob, gb) {
			t.Errorf("k=%d: replicated matches differ from oracle (dedup broken?)\noracle:  %s\ngateway: %s",
				k, trunc(ob), trunc(gb))
		}
	}

	logMetricLines(t, "gateway", c.URL, "stsmatch_gateway_failovers_total")
	for _, n := range c.Nodes {
		logMetricLines(t, "backend "+n.URL, n.URL,
			"stsmatch_repl_lag_records", "stsmatch_repl_shipped_records_total")
	}
}

// TestFramesCarryClusterTraffic runs TestReplicationEquivalence's shape
// through the gateway alone — sessions created and ingested at R=2, a
// match in both modes, predict, PLR, stats, probes,
// then a primary killed and its session failed over and ingested again —
// on the one cluster whose nodes are loopback listeners, and counts what
// each shard served: no HTTP request but the upgrades to the frame
// carrier, which carried every call from the gateway or a peer.
func TestFramesCarryClusterTraffic(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2, func(cfg *testutil.ClusterConfig) { cfg.Sockets = true })
	for i := 0; i < 6; i++ {
		pid := fmt.Sprintf("P%02d", i)
		createSession(t, c.URL, pid, "S-"+pid)
		for _, b := range respBatches(t, int64(300+i), 45) {
			ingestBatch(t, c.URL, "S-"+pid, b)
		}
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S-P00/plr")
	seq := plr.Sequence(pr.Vertices[len(pr.Vertices)-10:])
	for _, k := range []int{0, 10} {
		if _, res := matchBody(t, c.URL, server.MatchRequest{Seq: seq, PatientID: "P00", SessionID: "S-P00", K: k}); res.ShardsOK != 3 {
			t.Errorf("k=%d: shardsOk %d, want 3", k, res.ShardsOK)
		}
	}
	testutil.GetJSON[server.PredictionResponse](t, c.URL+"/v1/sessions/S-P00/predict?delta=200ms")
	testutil.GetJSON[shard.GatewayStatsResponse](t, c.URL+"/v1/stats")
	c.Probe(2)
	primary, _, _ := c.Gateway.SessionPlacement("S-P01")
	c.Kill(primary)
	c.Probe(1)
	ingestBatch(t, c.URL, "S-P01", []server.SampleIn{{T: 50, Pos: []float64{1}}, {T: 50.1, Pos: []float64{2}}})
	if now, _, _ := c.Gateway.SessionPlacement("S-P01"); now == primary {
		t.Fatal("S-P01 did not fail over")
	}
	for _, n := range c.Nodes {
		plain, upgrades := n.Requests()
		if plain != 0 || upgrades == 0 {
			t.Errorf("%s served %d plain HTTP requests besides %d upgrades, want none besides at least one", n.URL, plain, upgrades)
		}
	}
}

// TestFlapDampingRequiresConsecutiveSuccesses is the regression test
// for the health checker readmitting a backend on a single passing
// probe: a backend that answers one probe between crashes must stay
// ejected until ReadmitThreshold consecutive successes.
func TestFlapDampingRequiresConsecutiveSuccesses(t *testing.T) {
	ts := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})})
	defer ts.Close()

	// Probe outcomes, by index: fail (eject), pass (single success — a
	// flap), fail (crash again), pass, pass (two consecutive: readmit).
	ft := testutil.NewFaultTransport().Script(
		testutil.FaultDrop, testutil.FaultNone, testutil.FaultDrop,
		testutil.FaultNone, testutil.FaultNone)
	p, err := shard.NewPool([]string{ts.URL}, shard.Options{
		HealthInterval:   -1,
		FailThreshold:    1,
		ReadmitThreshold: 2,
		MaxRetries:       -1,
		Transport:        ft,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.Backends()[0]

	wantHealthy := []bool{false, false, false, false, true}
	for i, want := range wantHealthy {
		p.ProbeAll()
		if got := b.Healthy(); got != want {
			if i == 1 {
				t.Fatalf("probe %d: backend readmitted on a single passing probe between failures (flap)", i)
			}
			t.Fatalf("probe %d: healthy = %v, want %v", i, got, want)
		}
	}
	if got := ft.Requests(); got != len(wantHealthy) {
		t.Errorf("prober issued %d requests, want %d", got, len(wantHealthy))
	}
}
