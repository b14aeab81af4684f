package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/signal"
	"stsmatch/internal/testutil"
)

// fixture is a sharded deployment plus a single-node oracle loaded
// with the union of the same data.
type fixture struct {
	cluster  *testutil.Cluster
	oracle   *httptest.Server
	sessions map[string]string // sessionID -> patientID
	querySID string
	queryPID string
}

func newOracleTS(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(nil, core.DefaultParams(), fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// ingestSession creates a session and streams a deterministic
// synthetic respiration trace into it through the given base URL.
func ingestSession(t *testing.T, baseURL, pid, sid string, seed int64) {
	t.Helper()
	resp := testutil.PostJSON(t, baseURL+"/v1/sessions",
		server.CreateSessionRequest{PatientID: pid, SessionID: sid})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session %s/%s via %s: status %d", pid, sid, baseURL, resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), seed)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(45)
	for i := 0; i < len(samples); i += 512 {
		end := min(i+512, len(samples))
		batch := make([]server.SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
		}
		resp := testutil.PostJSON(t, baseURL+"/v1/sessions/"+sid+"/samples", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", sid, resp.StatusCode)
		}
	}
}

// newFixture spins up 3 shards behind a gateway at the given
// replication factor, ingests 6 patients through the gateway (routed
// by the ring), and mirrors the identical data into a single-node
// oracle.
func newFixture(t *testing.T, replicas int) *fixture {
	t.Helper()
	f := &fixture{
		cluster:  testutil.StartCluster(t, 3, replicas),
		oracle:   newOracleTS(t),
		sessions: map[string]string{},
	}
	for i := 0; i < 6; i++ {
		pid := fmt.Sprintf("P%02d", i)
		sid := "S-" + pid
		f.sessions[sid] = pid
		ingestSession(t, f.cluster.URL, pid, sid, int64(100+i))
		ingestSession(t, f.oracle.URL, pid, sid, int64(100+i))
	}
	f.queryPID = "P00"
	f.querySID = "S-P00"
	return f
}

// querySeq takes the trailing window of the query patient's PLR from
// the oracle (identical on the owning shard, since the data is).
func (f *fixture) querySeq(t *testing.T) plr.Sequence {
	t.Helper()
	pr := testutil.GetJSON[server.PLRResponse](t, f.oracle.URL+"/v1/sessions/"+f.querySID+"/plr")
	if len(pr.Vertices) < 12 {
		t.Fatalf("query stream too short: %d vertices", len(pr.Vertices))
	}
	return plr.Sequence(pr.Vertices[len(pr.Vertices)-10:])
}

func TestGatewayShardedMatchesOracle(t *testing.T) {
	f := newFixture(t, 1)

	// The ring must actually have spread the 6 patients over multiple
	// shards, or this test proves nothing.
	spread := 0
	for _, n := range f.cluster.Nodes {
		st := testutil.GetJSON[server.StatsResponse](t, n.URL+"/v1/stats")
		if st.Patients > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("ring placed all patients on %d shard(s); need >= 2 for a meaningful scatter test", spread)
	}

	seq := f.querySeq(t)
	for _, k := range []int{0, 10} { // threshold mode and top-k mode
		req := server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: k}

		oresp := testutil.PostJSON(t, f.oracle.URL+"/v1/match", req)
		if oresp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: oracle match status %d", k, oresp.StatusCode)
		}
		oracle := testutil.Decode[server.MatchResponse](t, oresp)

		gresp := testutil.PostJSON(t, f.cluster.URL+"/v1/match", req)
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: gateway match status %d", k, gresp.StatusCode)
		}
		merged := testutil.Decode[shard.MatchResult](t, gresp)

		if merged.Degraded {
			t.Errorf("k=%d: healthy deployment reported degraded", k)
		}
		if merged.ShardsQueried != 3 || merged.ShardsOK != 3 {
			t.Errorf("k=%d: fan-out %d/%d, want 3/3", k, merged.ShardsOK, merged.ShardsQueried)
		}
		if len(oracle.Matches) == 0 {
			t.Fatalf("k=%d: oracle found no matches; fixture is broken", k)
		}
		ob, err := json.Marshal(oracle.Matches)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(merged.Matches)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ob, gb) {
			t.Errorf("k=%d: sharded result differs from single-node oracle\noracle:  %d matches %s\ngateway: %d matches %s",
				k, len(oracle.Matches), trunc(ob), len(merged.Matches), trunc(gb))
		}
	}
}

func trunc(b []byte) string {
	const max = 600
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

func TestGatewayDegradedOnBackendFailure(t *testing.T) {
	f := newFixture(t, 1)
	seq := f.querySeq(t)
	req := server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: 10}

	// Expected surviving result: merge the two surviving shards'
	// direct answers with the gateway's own merge.
	killedURL := f.cluster.Nodes[1].URL
	var lists [][]server.RemoteMatch
	for i, n := range f.cluster.Nodes {
		if i == 1 {
			continue
		}
		resp := testutil.PostJSON(t, n.URL+"/v1/match", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct shard match status %d", resp.StatusCode)
		}
		lists = append(lists, testutil.Decode[server.MatchResponse](t, resp).Matches)
	}
	want := shard.MergeMatches(lists, req.K)

	f.cluster.Kill(killedURL) // kill one backend mid-test

	resp := testutil.PostJSON(t, f.cluster.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded match status %d, want 200 with partial results", resp.StatusCode)
	}
	res := testutil.Decode[shard.MatchResult](t, resp)
	if !res.Degraded {
		t.Error("degraded flag not set with a dead backend at replication factor 1")
	}
	if res.ShardsOK != 2 || res.ShardsQueried != 3 {
		t.Errorf("fan-out %d/%d, want 2/3", res.ShardsOK, res.ShardsQueried)
	}
	if len(res.ShardErrors) != 1 {
		t.Errorf("shardErrors = %v, want exactly the killed backend", res.ShardErrors)
	}
	if _, ok := res.ShardErrors[killedURL]; !ok {
		t.Errorf("shardErrors %v missing killed backend %s", res.ShardErrors, killedURL)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(res.Matches)
	if !bytes.Equal(wb, gb) {
		t.Errorf("degraded result != surviving shards' merge\nwant %s\ngot  %s", trunc(wb), trunc(gb))
	}

	// Active probing ejects the dead backend; healthz reports it.
	f.cluster.Probe(3)
	hz := testutil.GetJSON[shard.GatewayHealthResponse](t, f.cluster.URL+"/v1/healthz")
	if hz.Status != "degraded" || hz.HealthyCount != 2 {
		t.Errorf("healthz = %+v, want degraded with 2 healthy backends", hz)
	}

	// An ejected backend is skipped (not re-dialed) but still reported.
	resp = testutil.PostJSON(t, f.cluster.URL+"/v1/match", req)
	res = testutil.Decode[shard.MatchResult](t, resp)
	if !res.Degraded || res.ShardErrors[killedURL] == "" {
		t.Error("ejected backend not reported in degraded scatter")
	}

	// Aggregated stats stay available and flag degradation.
	st := testutil.GetJSON[shard.GatewayStatsResponse](t, f.cluster.URL+"/v1/stats")
	if !st.Degraded || st.ShardsOK != 2 {
		t.Errorf("stats = %+v, want degraded aggregate over 2 shards", st)
	}
	if st.Patients == 0 || st.Vertices == 0 {
		t.Error("surviving shards' stats not aggregated")
	}
}

func TestGatewaySessionRoutingAndDiscovery(t *testing.T) {
	f := newFixture(t, 1)

	// Prediction through the gateway must equal prediction from the
	// owning shard directly: same process, same data, same parameters.
	owner, _, ok := f.cluster.Gateway.SessionPlacement(f.querySID)
	if !ok {
		t.Fatal("gateway lost the session placement")
	}
	direct := testutil.GetJSON[server.PredictionResponse](t, owner+"/v1/sessions/"+f.querySID+"/predict?delta=200ms")
	viaGW := testutil.GetJSON[server.PredictionResponse](t, f.cluster.URL+"/v1/sessions/"+f.querySID+"/predict?delta=200ms")
	db, _ := json.Marshal(direct)
	gb, _ := json.Marshal(viaGW)
	if !bytes.Equal(db, gb) {
		t.Errorf("gateway prediction %s != direct %s", gb, db)
	}

	// A fresh gateway (restart) has an empty session table and must
	// rediscover placement from the shards' inventories.
	urls := make([]string, len(f.cluster.Nodes))
	for i, n := range f.cluster.Nodes {
		urls[i] = n.URL
	}
	gw2, err := shard.NewGateway(urls, shard.Options{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	ts2 := httptest.NewServer(gw2)
	defer ts2.Close()
	rediscovered := testutil.GetJSON[server.PLRResponse](t, ts2.URL+"/v1/sessions/"+f.querySID+"/plr")
	if len(rediscovered.Vertices) == 0 {
		t.Error("rediscovered session returned empty PLR")
	}
	if got, _, ok := gw2.SessionPlacement(f.querySID); !ok || got != owner {
		t.Errorf("discovery cached %q, want %q", got, owner)
	}

	// Unknown sessions 404 without a placement.
	resp, err := http.Get(ts2.URL + "/v1/sessions/nope/plr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status %d, want 404", resp.StatusCode)
	}

	// Closing through the gateway drops the placement.
	dresp := testutil.Delete(t, f.cluster.URL+"/v1/sessions/"+f.querySID)
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("close via gateway status %d", dresp.StatusCode)
	}
	if _, _, still := f.cluster.Gateway.SessionPlacement(f.querySID); still {
		t.Error("placement not dropped after close")
	}
}

// TestPlacementLookupRacesAddBackend: a lookup for a session the
// gateway does not know polls the shards' inventories; the poll must
// be taken over one snapshot of the backend set, so growing the cluster
// underneath it (POST /v1/admin/backends is exactly this) is safe.
// Sizing the result slots from one Backends() call and indexing them
// from a second made a lookup that straddled the grow write out of
// range and take the process down.
func TestPlacementLookupRacesAddBackend(t *testing.T) {
	c := testutil.StartCluster(t, 2, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/nobody-%d-%d/plr", c.URL, w, i))
				if err != nil {
					t.Errorf("lookup during grow: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("lookup of an unknown session: status %d, want 404", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := c.Gateway.AddBackend(c.AddNode(nil).URL); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestGatewaySessionIDEscaping: a session ID holding a character the
// path reserves ("/", "%", "?", "#", " ") reaches its session through the
// gateway. Create, ingest, PLR and close answer what the same request
// answers sent straight to a server holding the same session, and
// predict what the session's primary answers. Forwarding the decoded
// path instead answers 404 for "a/b", 502 for "100%" and 405 for "q?x"
// and "hash#1".
func TestGatewaySessionIDEscaping(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2)
	oracle := newOracleTS(t)
	send := func(method, url string, body any) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	batches := respBatches(t, 7, 45)
	for i, id := range []string{"a/b", "100%", "q?x", "hash#1", "plain", "sp ace"} {
		path := "/v1/sessions/" + url.PathEscape(id)
		same := func(op, method, direct, path string, body any) {
			t.Helper()
			gs, gb := send(method, c.URL+path, body)
			ds, db := send(method, direct+path, body)
			if gs != ds || gb != db {
				t.Errorf("%q %s: gateway answered %d %.120s, direct %d %.120s", id, op, gs, gb, ds, db)
			}
		}
		same("create", http.MethodPost, oracle.URL, "/v1/sessions",
			server.CreateSessionRequest{PatientID: fmt.Sprintf("P%02d", i), SessionID: id})
		for _, b := range batches {
			same("ingest", http.MethodPost, oracle.URL, path+"/samples", b)
		}
		same("plr", http.MethodGet, oracle.URL, path+"/plr", nil)
		primary, _, ok := c.Gateway.SessionPlacement(id)
		if !ok {
			t.Fatalf("%q: the gateway placed no session", id)
		}
		same("predict", http.MethodGet, primary, path+"/predict?delta=200ms", nil)
		same("close", http.MethodDelete, oracle.URL, path, nil)
	}
}
