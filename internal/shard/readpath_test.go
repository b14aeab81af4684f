package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/signal"
	"stsmatch/internal/testutil"
)

// matchFull posts a match request and decodes the gateway's result.
func matchFull(t *testing.T, baseURL string, req server.MatchRequest) shard.MatchResult {
	t.Helper()
	resp := testutil.PostJSON(t, baseURL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match via %s: status %d", baseURL, resp.StatusCode)
	}
	return testutil.Decode[shard.MatchResult](t, resp)
}

// scrapeCounter reads one unlabelled counter from a /metrics endpoint.
func scrapeCounter(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	return 0
}

// mustEqualMatches asserts two match lists are byte-identical.
func mustEqualMatches(t *testing.T, label string, want, got []server.RemoteMatch) {
	t.Helper()
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("%s: matches differ\nwant %s\ngot  %s", label, trunc(wb), trunc(gb))
	}
}

// TestFollowerReadsByteIdenticalToPrimary is the tentpole equivalence
// test: with every follower synchronously caught up, a follower-read
// scatter (large max-lag) must return byte-identical matches to both
// the legacy primary-only scatter (max-lag 0) and the single-node
// oracle, while actually serving at least one patient from a follower.
func TestFollowerReadsByteIdenticalToPrimary(t *testing.T) {
	f := newFixture(t, 2)
	seq := f.querySeq(t)

	oresp := testutil.PostJSON(t, f.oracle.URL+"/v1/match",
		server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: 10})
	oracle := testutil.Decode[server.MatchResponse](t, oresp)
	if len(oracle.Matches) == 0 {
		t.Fatal("oracle found no matches; fixture broken")
	}

	for _, k := range []int{0, 10} {
		base := server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: k}

		res0 := matchFull(t, f.cluster.URL, base)
		if res0.Degraded || res0.ShardsOK != 3 {
			t.Fatalf("k=%d: primary-only scatter degraded=%v shardsOk=%d", k, res0.Degraded, res0.ShardsOK)
		}
		if res0.PlannedPatients != 0 || res0.FollowerServed != 0 {
			t.Errorf("k=%d: max-lag 0 planned %d/follower-served %d, want 0/0 (legacy path)",
				k, res0.PlannedPatients, res0.FollowerServed)
		}

		loose := base
		loose.MaxLag = 1 << 20
		resL := matchFull(t, f.cluster.URL, loose)
		if resL.Degraded || len(resL.UnservedPatients) != 0 {
			t.Fatalf("k=%d: follower-read scatter degraded=%v unserved=%v",
				k, resL.Degraded, resL.UnservedPatients)
		}
		if resL.PlannedPatients != 6 {
			t.Errorf("k=%d: planned %d patients, want all 6", k, resL.PlannedPatients)
		}
		if resL.FollowerServed == 0 {
			t.Errorf("k=%d: no patient served from a follower at R=2; planner never spread reads", k)
		}
		mustEqualMatches(t, fmt.Sprintf("k=%d follower-reads vs primary-only", k), res0.Matches, resL.Matches)
		if k == 10 {
			mustEqualMatches(t, "follower-reads vs oracle", oracle.Matches, resL.Matches)
		}
	}
	logMetricLines(t, "gateway", f.cluster.URL,
		"stsmatch_gateway_follower_reads_total", "stsmatch_gateway_read_refusals_total")
}

// TestStaleFollowerRefusedThenServedAtLooseBound drives the refusal
// contract end to end with a genuinely lagging follower: replication
// shipments are dropped mid-session, the gateway's tracker is then
// over-credited (claiming the follower is caught up), and a tight
// max-lag query must come back byte-identical to the primary's answer
// anyway — the follower self-verifies, refuses, and the gateway
// retries on the primary. At a loose bound the same follower serves.
func TestStaleFollowerRefusedThenServedAtLooseBound(t *testing.T) {
	ft := testutil.NewFaultTransport().Only(func(r *http.Request) bool {
		return r.URL.Path == "/v1/replicate"
	})
	c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(i int, o *server.Options) { o.ReplicateTransport = ft }
	})

	// Create the session through the gateway and ship the first half of
	// the stream cleanly, so the follower holds a genuine prefix.
	resp := testutil.PostJSON(t, c.URL+"/v1/sessions",
		server.CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 42)
	if err != nil {
		t.Fatal(err)
	}
	all := gen.Generate(90)
	half := len(all) / 2
	ingest := func(from, to int, wantReplicated string) {
		t.Helper()
		for i := from; i < to; i += 256 {
			end := min(i+256, to)
			batch := make([]server.SampleIn, 0, end-i)
			for _, s := range all[i:end] {
				batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
			}
			resp := testutil.PostJSON(t, c.URL+"/v1/sessions/S01/samples", batch)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
			if got := resp.Header.Get(server.HeaderReplicated); got != wantReplicated {
				t.Fatalf("ingest X-Replicated = %q, want %q", got, wantReplicated)
			}
		}
	}
	ingest(0, half, "full")

	// Sever replication and keep ingesting: the primary pulls ahead,
	// the follower stays at the prefix.
	ft.SeedRandom(1, 1.0, testutil.FaultDrop)
	ingest(half, len(all), "partial")

	primaryURL, owners, ok := c.Gateway.SessionPlacement("S01")
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v", primaryURL, owners)
	}
	followerURL := owners[0]
	if followerURL == primaryURL {
		followerURL = owners[1]
	}
	primFR, ok := c.Gateway.FreshnessView(primaryURL, "P01")
	if !ok || primFR.Vertices == 0 {
		t.Fatalf("no tracked primary holdings: %+v", primFR)
	}
	folFR, ok := c.Gateway.FreshnessView(followerURL, "P01")
	if !ok || folFR.Vertices == 0 || folFR.Vertices >= primFR.Vertices {
		t.Fatalf("follower holdings %+v not a lagging prefix of primary %+v", folFR, primFR)
	}

	// Anonymous query (no PatientID/SessionID): a self-identified query
	// would exclude its own stream — the only stream in this cluster —
	// and every answer would be legitimately empty.
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S01/plr")
	req := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-8:], K: 10}

	// Ground truth: the primary's own unscoped answer.
	primDirect := testutil.Decode[server.MatchResponse](t,
		testutil.PostJSON(t, primaryURL+"/v1/match", req))
	if len(primDirect.Matches) == 0 {
		t.Fatal("primary found no matches; fixture broken")
	}

	// Poison the tracker: claim the follower is fully caught up. The
	// planner will now pin the read to the follower, which must refuse.
	c.Gateway.CreditFreshness(followerURL, "P01", primFR)
	refusalsBefore := scrapeCounter(t, c.URL, "stsmatch_gateway_read_refusals_total")
	retriesBefore := scrapeCounter(t, c.URL, "stsmatch_gateway_match_retry_legs_total")

	tight := req
	tight.MaxLag = 1
	resT := matchFull(t, c.URL, tight)
	if resT.PlannedPatients != 1 {
		t.Fatalf("tight-bound query planned %d patients, want 1", resT.PlannedPatients)
	}
	if resT.FollowerServed != 0 {
		t.Error("stale follower served a max-lag=1 read instead of refusing")
	}
	if resT.Degraded || len(resT.UnservedPatients) != 0 {
		t.Fatalf("refusal retry left the query degraded: %+v", resT)
	}
	mustEqualMatches(t, "tight bound after refusal retry", primDirect.Matches, resT.Matches)
	if got := scrapeCounter(t, c.URL, "stsmatch_gateway_read_refusals_total"); got <= refusalsBefore {
		t.Errorf("read refusals %v -> %v; follower never refused", refusalsBefore, got)
	}
	if got := scrapeCounter(t, c.URL, "stsmatch_gateway_match_retry_legs_total"); got <= retriesBefore {
		t.Errorf("retry legs %v -> %v; no recovery leg sent", retriesBefore, got)
	}

	// At a loose bound the same lagging follower is a legitimate
	// server: its answer is its own local (prefix) answer.
	folDirect := testutil.Decode[server.MatchResponse](t,
		testutil.PostJSON(t, followerURL+"/v1/match", req))
	looseReq := req
	looseReq.MaxLag = 1 << 20
	resL := matchFull(t, c.URL, looseReq)
	if resL.FollowerServed != 1 {
		t.Fatalf("loose bound follower-served = %d, want 1", resL.FollowerServed)
	}
	if resL.Degraded || len(resL.UnservedPatients) != 0 {
		t.Fatalf("loose-bound read degraded: %+v", resL)
	}
	mustEqualMatches(t, "loose bound vs follower's local answer", folDirect.Matches, resL.Matches)
}

// TestKillPrimaryDuringFollowerReads is the chaos step: with follower
// reads live, killing a shard — both before and after the health
// checker notices — must keep results byte-identical to the oracle via
// surviving owners, with nothing unserved.
func TestKillPrimaryDuringFollowerReads(t *testing.T) {
	cluster := testutil.StartCluster(t, 3, 2)
	oracle := newOracleTS(t)
	for i := 0; i < 6; i++ {
		pid := fmt.Sprintf("P%02d", i)
		sid := "S-" + pid
		ingestSession(t, cluster.URL, pid, sid, int64(100+i))
		ingestSession(t, oracle.URL, pid, sid, int64(100+i))
	}
	pr := testutil.GetJSON[server.PLRResponse](t, oracle.URL+"/v1/sessions/S-P00/plr")
	req := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-10:],
		PatientID: "P00", SessionID: "S-P00", K: 10, MaxLag: 1 << 20}
	owant := testutil.Decode[server.MatchResponse](t,
		testutil.PostJSON(t, oracle.URL+"/v1/match",
			server.MatchRequest{Seq: req.Seq, PatientID: "P00", SessionID: "S-P00", K: 10}))
	if len(owant.Matches) == 0 {
		t.Fatal("oracle found no matches; fixture broken")
	}

	pre := matchFull(t, cluster.URL, req)
	if pre.Degraded || pre.FollowerServed == 0 {
		t.Fatalf("pre-kill follower reads: degraded=%v followerServed=%d", pre.Degraded, pre.FollowerServed)
	}
	mustEqualMatches(t, "pre-kill", owant.Matches, pre.Matches)

	killed := cluster.Nodes[1].URL
	cluster.Kill(killed)

	// Before the prober notices, legs to the dead shard fail and their
	// planned patients must be recovered on alternates in-query.
	mid := matchFull(t, cluster.URL, req)
	if mid.Degraded || len(mid.UnservedPatients) != 0 {
		t.Fatalf("mid-kill query degraded=%v unserved=%v shardErrors=%v",
			mid.Degraded, mid.UnservedPatients, mid.ShardErrors)
	}
	if mid.ShardErrors[killed] == "" {
		t.Error("dead shard's leg not reported")
	}
	mustEqualMatches(t, "mid-kill (pre-ejection)", owant.Matches, mid.Matches)

	// After ejection the planner routes around the dead shard entirely.
	cluster.Probe(1)
	post := matchFull(t, cluster.URL, req)
	if post.Degraded || len(post.UnservedPatients) != 0 {
		t.Fatalf("post-ejection query degraded=%v unserved=%v", post.Degraded, post.UnservedPatients)
	}
	mustEqualMatches(t, "post-ejection", owant.Matches, post.Matches)

	logMetricLines(t, "gateway", cluster.URL,
		"stsmatch_gateway_follower_reads_total", "stsmatch_gateway_match_retry_legs_total",
		"stsmatch_gateway_read_refusals_total")
}

// The two read-your-writes tests below keep the names they had when the
// gateway cached match results; the gateway caches nothing now, and
// what outlives the cache is that a query through the gateway reads
// every write the gateway has acknowledged.

// oracleMatches answers req on the fixture's single-node oracle.
func (f *fixture) oracleMatches(t *testing.T, req server.MatchRequest) []server.RemoteMatch {
	t.Helper()
	return testutil.Decode[server.MatchResponse](t, testutil.PostJSON(t, f.oracle.URL+"/v1/match", req)).Matches
}

// TestMatchCacheHitMissAndInvalidation: after an acked ingest of a new
// patient, the next query — cut from that patient's session, so its
// answer must include the patient — equals a single-node oracle holding
// the same union, at max-lag 0 and at a loose bound.
func TestMatchCacheHitMissAndInvalidation(t *testing.T) {
	f := newFixture(t, 2)
	for i, maxLag := range []int{0, 1 << 20} {
		pid := fmt.Sprintf("P%02d", 6+i)
		ingestSession(t, f.cluster.URL, pid, "S-"+pid, int64(206+i))
		ingestSession(t, f.oracle.URL, pid, "S-"+pid, int64(206+i))
		pr := testutil.GetJSON[server.PLRResponse](t, f.oracle.URL+"/v1/sessions/S-"+pid+"/plr")
		req := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-20 : len(pr.Vertices)-10], K: 10, MaxLag: maxLag}
		res := matchFull(t, f.cluster.URL, req)
		if res.Degraded {
			t.Fatalf("max-lag %d: healthy cluster degraded: %+v", maxLag, res)
		}
		if !slices.ContainsFunc(res.Matches, func(m server.RemoteMatch) bool { return m.PatientID == pid }) {
			t.Errorf("max-lag %d: no match from %s, whose ingest was acked", maxLag, pid)
		}
		mustEqualMatches(t, fmt.Sprintf("max-lag %d after the acked ingest of %s", maxLag, pid), f.oracleMatches(t, req), res.Matches)
	}
}

// TestMatchCacheConcurrentIngest: four queriers run while sessions are
// created and ingested through the same gateway. Every response is a
// complete 200, and once the last ingest is acked the query equals a
// single-node oracle holding the same union, at max-lag 0 and at a
// loose bound.
func TestMatchCacheConcurrentIngest(t *testing.T) {
	f := newFixture(t, 2)
	seq := f.querySeq(t)
	reqs := []server.MatchRequest{
		{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: 10},
		{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: 10, MaxLag: 1 << 20},
	}
	var bodies [][]byte
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	var answered atomic.Int64
	var wg sync.WaitGroup
	ingested := make(chan struct{})
	for w := range 4 {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			for {
				res, err := tryMatch(f.cluster.URL, body)
				if err != nil {
					t.Errorf("concurrent match: %v", err)
					return
				}
				if res.Degraded {
					t.Errorf("concurrent match degraded: %+v", res)
					return
				}
				answered.Add(1)
				select {
				case <-ingested:
					return
				default:
				}
			}
		}(bodies[w%len(bodies)])
	}
	func() {
		defer func() { close(ingested); wg.Wait() }()
		for i := range 3 {
			pid := fmt.Sprintf("P1%d", i)
			ingestSession(t, f.cluster.URL, pid, "S-"+pid, int64(300+i))
			ingestSession(t, f.oracle.URL, pid, "S-"+pid, int64(300+i))
		}
	}()
	t.Logf("%d queries answered during ingest", answered.Load())
	for _, req := range reqs {
		mustEqualMatches(t, fmt.Sprintf("max-lag %d once ingest settled", req.MaxLag), f.oracleMatches(t, req), matchFull(t, f.cluster.URL, req).Matches)
	}
}
