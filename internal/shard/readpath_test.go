package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
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

// readLags are the tolerances every read test asks at: the default, a
// tight one and one no follower could ever trail by.
var readLags = []int{0, 10, 1 << 20}

// matchAtLag asks the gateway req at one max-lag, spelled in the body
// and as ?max-lag=, and requires both answers to agree: the same bytes
// when every shard answered, else the same matches and the same failed
// shards (a transport error's wording varies from call to call).
func matchAtLag(t *testing.T, baseURL string, req server.MatchRequest, maxLag int) shard.MatchResult {
	t.Helper()
	req.MaxLag = maxLag
	raw, res := matchBody(t, baseURL, req)
	req.MaxLag = 0
	resp := testutil.PostJSON(t, baseURL+"/v1/match?max-lag="+strconv.Itoa(maxLag), req)
	viaQuery, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("?max-lag=%d: status %d (%v): %s", maxLag, resp.StatusCode, err, viaQuery)
	}
	var other shard.MatchResult
	if err := json.Unmarshal(viaQuery, &other); err != nil {
		t.Fatal(err)
	}
	failed := func(r shard.MatchResult) []string {
		var urls []string
		for u := range r.ShardErrors {
			urls = append(urls, u)
		}
		slices.Sort(urls)
		return urls
	}
	if res.ShardErrors == nil && !bytes.Equal(raw, viaQuery) ||
		!reflect.DeepEqual(res.Matches, other.Matches) || res.Degraded != other.Degraded ||
		!slices.Equal(failed(res), failed(other)) {
		t.Errorf("max-lag %d: body knob answered\n%s\nthe query parameter\n%s", maxLag, trunc(raw), trunc(viaQuery))
	}
	for _, key := range []string{`"plannedPatients"`, `"followerServed"`, `"unservedPatients"`} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("max-lag %d: answer carries %s: %s", maxLag, key, trunc(raw))
		}
	}
	return res
}

// TestFollowerReadsByteIdenticalToPrimary: the name dates from the
// follower-read planner. Every read is now the exact scatter, so at
// every max-lag, in threshold and top-k mode, a healthy R=2 cluster
// answers byte for byte what the single-node oracle answers.
func TestFollowerReadsByteIdenticalToPrimary(t *testing.T) {
	f := newFixture(t, 2)
	seq := f.querySeq(t)
	for _, k := range []int{0, 10} {
		req := server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: k}
		oracle := f.oracleMatches(t, req)
		if len(oracle) == 0 {
			t.Fatalf("k=%d: oracle found no matches; fixture broken", k)
		}
		for _, lag := range readLags {
			res := matchAtLag(t, f.cluster.URL, req, lag)
			if res.Degraded || res.ShardsOK != 3 {
				t.Fatalf("k=%d max-lag %d: degraded=%v shardsOk=%d", k, lag, res.Degraded, res.ShardsOK)
			}
			mustEqualMatches(t, fmt.Sprintf("k=%d max-lag %d vs oracle", k, lag), oracle, res.Matches)
		}
	}
}

// TestStaleFollowerRefusedThenServedAtLooseBound: the name dates from
// when a lagging follower refused a tight max-lag and served a loose
// one. Replication shipments are dropped mid-session, so the follower
// holds a genuine prefix of the primary's stream and answers a
// different (prefix) result on its own. Through the gateway, every
// max-lag answers the oracle's result, never the follower's: the
// follower's hits are a subset of the primary's, and the merge drops
// them as duplicates.
func TestStaleFollowerRefusedThenServedAtLooseBound(t *testing.T) {
	ft := testutil.NewFaultTransport().Only(func(r *http.Request) bool {
		return r.URL.Path == "/v1/replicate"
	})
	c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(i int, o *server.Options) { o.ReplicateTransport = ft }
	})
	oracle := newOracleTS(t)

	// Create the session through the gateway and ship the first half of
	// the stream cleanly, so the follower holds a genuine prefix.
	for _, base := range []string{c.URL, oracle.URL} {
		resp := testutil.PostJSON(t, base+"/v1/sessions",
			server.CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create via %s: status %d", base, resp.StatusCode)
		}
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 42)
	if err != nil {
		t.Fatal(err)
	}
	all := gen.Generate(90)
	half := len(all) / 2
	ingest := func(from, to int, severed bool) {
		t.Helper()
		for i := from; i < to; i += 256 {
			end := min(i+256, to)
			batch := make([]server.SampleIn, 0, end-i)
			for _, s := range all[i:end] {
				batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
			}
			ingestBatch(t, oracle.URL, "S01", batch)
			resp := testutil.PostJSON(t, c.URL+"/v1/sessions/S01/samples", batch)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
			if sr := testutil.Decode[server.SamplesResponse](t, resp); (len(sr.ReplicaErrors) > 0) != severed {
				t.Fatalf("ingest replicaErrors = %v with the follower severed=%v", sr.ReplicaErrors, severed)
			}
		}
	}
	ingest(0, half, false)

	// Sever replication and keep ingesting: the primary pulls ahead,
	// the follower stays at the prefix.
	ft.SeedRandom(1, 1.0, testutil.FaultDrop)
	ingest(half, len(all), true)

	primaryURL, owners, ok := c.Gateway.SessionPlacement("S01")
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v", primaryURL, owners)
	}
	followerURL := owners[0]
	if followerURL == primaryURL {
		followerURL = owners[1]
	}
	prim := testutil.GetJSON[server.ShardStatsResponse](t, primaryURL+"/v1/shard/stats")
	fol := testutil.GetJSON[server.ShardStatsResponse](t, followerURL+"/v1/shard/stats")
	if len(prim.Sessions) != 1 || len(fol.Replicas) != 1 || fol.Replicas[0].Vertices == 0 ||
		fol.Replicas[0].Vertices >= prim.Sessions[0].Vertices {
		t.Fatalf("follower %+v is not a lagging prefix of primary %+v", fol.Replicas, prim.Sessions)
	}

	// Anonymous query (no PatientID/SessionID): a self-identified query
	// would exclude its own stream — the only stream in this cluster —
	// and every answer would be legitimately empty.
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/S01/plr")
	req := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-8:], K: 10}
	want := testutil.Decode[server.MatchResponse](t, testutil.PostJSON(t, oracle.URL+"/v1/match", req)).Matches
	folDirect := testutil.Decode[server.MatchResponse](t, testutil.PostJSON(t, followerURL+"/v1/match", req)).Matches
	if len(want) == 0 {
		t.Fatal("oracle found no matches; fixture broken")
	}
	wb, _ := json.Marshal(want)
	fb, _ := json.Marshal(folDirect)
	if bytes.Equal(wb, fb) {
		t.Fatal("the lagging follower answers what the oracle answers; fixture proves nothing")
	}
	for _, lag := range append(readLags, 1) {
		res := matchAtLag(t, c.URL, req, lag)
		if res.Degraded || res.ShardsOK != 2 {
			t.Fatalf("max-lag %d: degraded=%v shardsOk=%d", lag, res.Degraded, res.ShardsOK)
		}
		mustEqualMatches(t, fmt.Sprintf("max-lag %d with a lagging follower", lag), want, res.Matches)
	}
}

// TestKillPrimaryDuringFollowerReads is the chaos step: killing a
// shard — both before and after the health checker notices — keeps
// every answer, at every max-lag, byte-identical to the oracle through
// the surviving owners, and never degraded.
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
	req := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-10:], PatientID: "P00", SessionID: "S-P00", K: 10}
	owant := testutil.Decode[server.MatchResponse](t, testutil.PostJSON(t, oracle.URL+"/v1/match", req))
	if len(owant.Matches) == 0 {
		t.Fatal("oracle found no matches; fixture broken")
	}
	check := func(phase string, wantErr string) {
		t.Helper()
		for _, lag := range readLags {
			res := matchAtLag(t, cluster.URL, req, lag)
			if res.Degraded {
				t.Fatalf("%s max-lag %d: degraded, shardErrors=%v", phase, lag, res.ShardErrors)
			}
			if wantErr != "" && res.ShardErrors[wantErr] == "" {
				t.Errorf("%s max-lag %d: dead shard's leg not reported", phase, lag)
			}
			mustEqualMatches(t, fmt.Sprintf("%s max-lag %d", phase, lag), owant.Matches, res.Matches)
		}
	}
	check("pre-kill", "")

	killed := cluster.Nodes[1].URL
	cluster.Kill(killed)
	// Before the prober notices, the dead shard's leg fails and its
	// arcs are covered by the followers that answered.
	check("mid-kill (pre-ejection)", killed)

	// After ejection the dead shard is not asked at all.
	cluster.Probe(1)
	check("post-ejection", killed)
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
